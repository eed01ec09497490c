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
        let padded = format!(" {} ", normalize(text));
        let mut concepts = Vec::new();
        for concept in ontology.concepts() {
            let name = concept.name();
            let multi_word = name.contains('-');
            // A concept "dog-head" should match the surface forms "dog-head", "dog head".
            if mentions(&padded, name, false) || (multi_word && mentions(&padded, name, true)) {
                // Multi-word concepts are more specific; weight them a little higher.
                let weight = if multi_word { 1.0 } else { 0.9 };
                concepts.push((concept.clone(), weight));
            }
        }
        Self {
            text: text.to_string(),
            concepts,
        }
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
        let mut q = Self::from_words(text, ontology);
        for c in extra {
            let concept = Concept::new(c.into());
            if let Some(entry) = q.concepts.iter_mut().find(|(existing, _)| *existing == concept) {
                entry.1 = entry.1.max(1.0);
            } else {
                q.concepts.push((concept, 1.0));
            }
        }
        q
    }

    /// True when no concepts could be extracted (the proactive-context open question in §4:
    /// without user words there is nothing to anchor the correlation on).
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }
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
}
