//! Text queries: the "user words" side of Eq. 1.
//!
//! A [`TextQuery`] is the tokenized user utterance plus the ontology concepts it mentions.
//! Concept extraction is a deterministic lexical matcher over the ontology vocabulary
//! (multi-word concept names like `dog-head` match "dog head" or "dog's head"); callers that
//! already know the intended concepts (e.g. DeViBench facts carry `query_concepts`) can add
//! them explicitly, mirroring how a real text encoder would pick up the semantics regardless
//! of surface form.

use aivc_scene::{Concept, Ontology};
use serde::{Deserialize, Serialize};

/// A user utterance prepared for semantic matching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextQuery {
    /// The raw words as the user typed/spoke them.
    pub text: String,
    /// Ontology concepts the query refers to, with weights.
    pub concepts: Vec<(Concept, f64)>,
}

impl TextQuery {
    /// Builds a query by lexically matching `text` against the ontology vocabulary.
    pub fn from_words(text: &str, ontology: &Ontology) -> Self {
        Self::from_words_and_concepts(text, ontology, std::iter::empty::<String>())
    }

    /// Builds a query from explicit concepts (the path DeViBench facts use).
    pub fn from_concepts<I, S>(text: &str, concepts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            text: text.to_string(),
            concepts: concepts
                .into_iter()
                .map(|c| (Concept::new(c.into()), 1.0))
                .collect(),
        }
    }

    /// Builds a query from the words, then merges in explicit concepts (deduplicated,
    /// keeping the maximum weight).
    pub fn from_words_and_concepts<I, S>(text: &str, ontology: &Ontology, extra: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let extra: Vec<String> = extra.into_iter().map(Into::into).collect();
        let mut query = Self {
            text: String::new(),
            concepts: Vec::new(),
        };
        QueryBuilder::new().refill(&mut query, text, ontology, &extra);
        query
    }

    /// True when no concepts could be extracted (the proactive-context open question in §4:
    /// without user words there is nothing to anchor the correlation on).
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }
}

/// Derives [`TextQuery`]s in place, the way a long-lived conversation does: a new question
/// each turn reuses the query's text and concept-name buffers (names a shorter query no
/// longer needs wait in a spare list for the next longer one), so once the buffers have
/// grown to the conversation's questions a re-derivation allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    /// The words and explicit concepts of the last derivation.
    built: QueryStamp,
    /// The space-padded normalized text being matched.
    padded: String,
    /// Concept-name buffers released by earlier derivations.
    spare: Vec<Concept>,
}

impl QueryBuilder {
    /// A builder with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes `query` exactly [`TextQuery::from_words_and_concepts`]`(text, ontology,
    /// extra)`. When `text` and `extra` equal the previous call's, `query` is taken to
    /// still hold that derivation and is left alone. Returns whether `query` was rebuilt.
    pub fn refill<S: AsRef<str>>(
        &mut self,
        query: &mut TextQuery,
        text: &str,
        ontology: &Ontology,
        extra: &[S],
    ) -> bool {
        let inputs = || extra.iter().map(|c| (c.as_ref(), 0u64));
        if self.built.matches(text, inputs()) {
            return false;
        }
        self.built.record(text, inputs());
        query.text.clear();
        query.text.push_str(text);
        normalize_padded_into(text, &mut self.padded);
        let concepts = &mut query.concepts;
        let mut len = 0;
        for concept in ontology.concepts() {
            let name = concept.name();
            let multi_word = name.contains('-');
            // A concept "dog-head" should match the surface forms "dog-head", "dog head".
            if mentions(&self.padded, name, false) || (multi_word && mentions(&self.padded, name, true)) {
                // Multi-word concepts are more specific; weight them a little higher.
                let slot = next_slot(concepts, &mut self.spare, len);
                slot.0 .0.push_str(name);
                slot.1 = if multi_word { 1.0 } else { 0.9 };
                len += 1;
            }
        }
        for name in extra {
            let name = name.as_ref();
            let slot = next_slot(concepts, &mut self.spare, len);
            // `Concept::new`'s lowercasing, in place for ASCII names.
            if name.is_ascii() {
                slot.0 .0.extend(name.chars().map(|c| c.to_ascii_lowercase()));
            } else {
                slot.0 .0.push_str(&name.to_lowercase());
            }
            slot.1 = 1.0;
            let (kept, candidate) = concepts.split_at_mut(len);
            if let Some(entry) = kept.iter_mut().find(|(existing, _)| *existing == candidate[0].0) {
                entry.1 = entry.1.max(1.0);
            } else {
                len += 1;
            }
        }
        while concepts.len() > len {
            let (concept, _) = concepts.pop().expect("more slots than concepts");
            self.spare.push(concept);
        }
        true
    }
}

/// Slot `len` of `concepts`, emptied for the next concept: the slot already there, a spare
/// name buffer, or a new one.
fn next_slot<'c>(
    concepts: &'c mut Vec<(Concept, f64)>,
    spare: &mut Vec<Concept>,
    len: usize,
) -> &'c mut (Concept, f64) {
    if len == concepts.len() {
        let concept = spare.pop().unwrap_or_else(|| Concept(String::new()));
        concepts.push((concept, 0.0));
    }
    let slot = &mut concepts[len];
    slot.0 .0.clear();
    slot
}

/// A capacity-keeping record of a text plus `(name, weight bits)` items, compared in place:
/// what a scratch remembers about the query (or question) it last derived something from.
/// Recording and comparing allocate nothing once the buffers have grown to the largest
/// record seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueryStamp {
    valid: bool,
    text: String,
    /// Every item's name, concatenated.
    names: String,
    /// `(end of the item's name in names, weight bits)` per item.
    items: Vec<(usize, u64)>,
}

impl QueryStamp {
    /// Whether a record is held and equals `text` and `items` (weights bit for bit).
    pub(crate) fn matches<'a>(
        &self,
        text: &str,
        items: impl ExactSizeIterator<Item = (&'a str, u64)>,
    ) -> bool {
        if !self.valid || self.text != text || self.items.len() != items.len() {
            return false;
        }
        let mut start = 0;
        self.items
            .iter()
            .zip(items)
            .all(|(&(end, bits), (name, weight))| {
                let same = &self.names[start..end] == name && bits == weight;
                start = end;
                same
            })
    }

    /// Records `text` and `items`, replacing any previous record.
    pub(crate) fn record<'a>(&mut self, text: &str, items: impl Iterator<Item = (&'a str, u64)>) {
        self.text.clear();
        self.text.push_str(text);
        self.names.clear();
        self.items.clear();
        for (name, weight) in items {
            self.names.push_str(name);
            self.items.push((self.names.len(), weight));
        }
        self.valid = true;
    }

    /// [`QueryStamp::matches`] for a query's text and weighted concepts.
    pub(crate) fn matches_query(&self, query: &TextQuery) -> bool {
        self.matches(&query.text, stamp_items(query))
    }

    /// [`QueryStamp::record`] for a query's text and weighted concepts.
    pub(crate) fn record_query(&mut self, query: &TextQuery) {
        self.record(&query.text, stamp_items(query));
    }

    /// Forgets the record: nothing matches until the next one.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }
}

fn stamp_items(query: &TextQuery) -> impl ExactSizeIterator<Item = (&str, u64)> {
    query
        .concepts
        .iter()
        .map(|(concept, weight)| (concept.name(), weight.to_bits()))
}

/// True when `padded` (space-padded normalized text) contains `name` as a whole-word run,
/// i.e. contains `" {name} "`; with `hyphens_as_spaces`, every `-` of `name` matches a
/// space instead (`" dog head "` for `dog-head`). Compares bytes in place, allocating
/// nothing; `-` and space are ASCII, so a byte comparison never splits a UTF-8 character.
fn mentions(padded: &str, name: &str, hyphens_as_spaces: bool) -> bool {
    let name = name.as_bytes();
    let expected = |n: u8| if hyphens_as_spaces && n == b'-' { b' ' } else { n };
    padded.as_bytes().windows(name.len() + 2).any(|window| {
        window[0] == b' '
            && window[name.len() + 1] == b' '
            && window[1..=name.len()]
                .iter()
                .zip(name)
                .all(|(&t, &n)| t == expected(n))
    })
}

/// Lowercases and strips punctuation/possessives so lexical matching is robust.
fn normalize(text: &str) -> String {
    let lowered = text.to_lowercase().replace("'s", " ");
    lowered
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '-' { c } else { ' ' })
        .collect::<String>()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Writes `format!(" {} ", normalize(text))` into `out`, reusing its buffer. ASCII text
/// (every question the scene templates ask) is normalized in one pass without
/// allocating; other text goes through [`normalize`].
fn normalize_padded_into(text: &str, out: &mut String) {
    out.clear();
    out.push(' ');
    if text.is_ascii() {
        let mut previous = 0u8;
        let mut gap = false;
        for byte in text.bytes().map(|b| b.to_ascii_lowercase()) {
            // "'s" becomes a space, so an `s` right after an apostrophe ends a word.
            let keep = (byte.is_ascii_alphanumeric() || byte == b'-') && !(byte == b's' && previous == b'\'');
            previous = byte;
            if !keep {
                gap = true;
                continue;
            }
            if gap && out.len() > 1 {
                out.push(' ');
            }
            gap = false;
            out.push(byte as char);
        }
    } else {
        out.push_str(&normalize(text));
    }
    out.push(' ');
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_scene::templates::TemplateKind;

    fn ontology() -> Ontology {
        Ontology::standard()
    }

    #[test]
    fn extracts_direct_mentions() {
        let q = TextQuery::from_words("Could you tell me the present score of the game?", &ontology());
        let names: Vec<_> = q.concepts.iter().map(|(c, _)| c.name().to_string()).collect();
        assert!(names.contains(&"score".to_string()), "{names:?}");
    }

    #[test]
    fn extracts_multiword_concepts_from_spaced_form() {
        let q = TextQuery::from_words("Is the dog's head showing floppy ears?", &ontology());
        let names: Vec<_> = q.concepts.iter().map(|(c, _)| c.name().to_string()).collect();
        assert!(names.contains(&"dog-head".to_string()), "{names:?}");
        assert!(names.contains(&"ears".to_string()), "{names:?}");
        assert!(names.contains(&"dog".to_string()), "{names:?}");
    }

    #[test]
    fn season_question_mentions_season() {
        let q = TextQuery::from_words("Infer what season it might be in the video", &ontology());
        assert!(q.concepts.iter().any(|(c, _)| c.name() == "season"));
    }

    #[test]
    fn unrelated_text_yields_empty_query() {
        let q = TextQuery::from_words("zzz qqq xyzzy", &ontology());
        assert!(q.is_empty());
    }

    #[test]
    fn explicit_concepts_are_merged_without_duplicates() {
        let q = TextQuery::from_words_and_concepts(
            "What logo is on the jersey?",
            &ontology(),
            ["logo", "jersey", "player"],
        );
        let logo_count = q.concepts.iter().filter(|(c, _)| c.name() == "logo").count();
        assert_eq!(logo_count, 1);
        assert!(q.concepts.iter().any(|(c, _)| c.name() == "player"));
    }

    /// The per-concept-string matcher `from_words` used before [`mentions`].
    fn reference_concepts(text: &str, ontology: &Ontology) -> Vec<(Concept, f64)> {
        let padded = format!(" {} ", normalize(text));
        let mut concepts = Vec::new();
        for concept in ontology.concepts() {
            let name = concept.name();
            let surface = format!(" {} ", name.replace('-', " "));
            let hyphened = format!(" {name} ");
            if padded.contains(&surface) || padded.contains(&hyphened) {
                let weight = if name.contains('-') { 1.0 } else { 0.9 };
                concepts.push((concept.clone(), weight));
            }
        }
        concepts
    }

    #[test]
    fn in_place_matching_matches_the_string_building_reference() {
        let o = ontology();
        let mut texts: Vec<String> = Vec::new();
        for kind in TemplateKind::ALL {
            for seed in 0..8 {
                texts.extend(kind.build(seed).facts.into_iter().map(|f| f.question));
            }
        }
        let edge_cases = [
            "Is the dog's head showing floppy ears?",
            "Is the dog erect-eared, with erect-ears or erect ears?",
            "Read the license plate, then the license-plate and the traffic light",
            "dog-head",
            "DOG HEAD",
            "The audience-stand's seats",
            "dog-headed",
            "headdog head-dog",
            "zzz qqq xyzzy",
            "",
            "  ",
            "-",
            "über straße: naïve café's",
        ];
        texts.extend(edge_cases.iter().map(|t| t.to_string()));
        let mut matched = 0;
        for text in &texts {
            let want = reference_concepts(text, &o);
            matched += usize::from(!want.is_empty());
            assert_eq!(TextQuery::from_words(text, &o).concepts, want, "{text:?}");
        }
        assert!(matched > texts.len() / 2, "too few texts match any concept");
    }

    #[test]
    fn normalization_handles_punctuation() {
        assert_eq!(normalize("The DOG'S head, please!"), "the dog head please");
    }

    #[test]
    fn ascii_normalization_matches_the_allocating_form() {
        let texts = [
            "The DOG'S head, please!",
            "dog'sled ''s 's's ''ss 'S",
            "  leading and trailing  ",
            "",
            "  ",
            "-",
            "a-b--c - d",
            "What's the SCORE? (home-team's)",
            "tab\tand\nnewline",
        ];
        let mut out = String::new();
        for text in texts {
            normalize_padded_into(text, &mut out);
            assert_eq!(out, format!(" {} ", normalize(text)), "{text:?}");
        }
    }

    #[test]
    fn builder_refills_match_fresh_queries_in_any_order() {
        let o = ontology();
        let mut questions: Vec<(String, Vec<String>)> = Vec::new();
        for kind in TemplateKind::ALL {
            for fact in kind.build(1).facts {
                questions.push((fact.question, fact.query_concepts));
            }
        }
        questions.push((
            "über straße: naïve café's".into(),
            vec!["Café".into(), "DOG".into()],
        ));
        questions.push(("".into(), vec!["dog".into(), "dog".into(), "Dog".into()]));
        let mut builder = QueryBuilder::new();
        let mut query = TextQuery::from_concepts("", std::iter::empty::<String>());
        for round in 0..3 {
            for (i, (text, extra)) in questions.iter().enumerate() {
                let (text, extra) = if round == 1 {
                    let reversed = &questions[questions.len() - 1 - i];
                    (&reversed.0, &reversed.1)
                } else {
                    (text, extra)
                };
                builder.refill(&mut query, text, &o, extra);
                let fresh = TextQuery::from_words_and_concepts(text, &o, extra.iter().cloned());
                assert_eq!(query, fresh, "{text:?}");
                // The same inputs again: nothing to rebuild.
                assert!(!builder.refill(&mut query, text, &o, extra));
            }
        }
    }

    #[test]
    fn stamps_compare_text_names_and_weight_bits() {
        let q = TextQuery::from_concepts("find it", ["a", "bc"]);
        let mut stamp = QueryStamp::default();
        assert!(!stamp.matches_query(&q));
        stamp.record_query(&q);
        assert!(stamp.matches_query(&q));
        // Same concatenated names, split differently.
        assert!(!stamp.matches_query(&TextQuery::from_concepts("find it", ["ab", "c"])));
        assert!(!stamp.matches_query(&TextQuery::from_concepts("find it!", ["a", "bc"])));
        let mut reweighted = q.clone();
        reweighted.concepts[1].1 = 0.5;
        assert!(!stamp.matches_query(&reweighted));
        stamp.invalidate();
        assert!(!stamp.matches_query(&q));
    }
}
