//! Syntactic-semantic question patterns (Module 1's pattern bank).
//!
//! A pattern constrains the interrogative word, optionally requires a
//! copular verb, and semantically constrains the question *focus* (the
//! noun after the wh-word) through the ontology: "\[WHICH\] \[synonym of
//! COUNTRY\] \[…\]" matches any focus that is a synonym or hyponym of
//! `country` in the merged ontology. The paper's Step 4 tunes the system
//! by *adding* patterns — [`temperature_pattern`] is exactly the one its
//! experiment adds.

use crate::taxonomy::AnswerType;
use dwqa_ontology::Ontology;

/// A question pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestionPattern {
    /// Pattern name (shown in traces).
    pub name: String,
    /// Accepted interrogative lemmas (empty = any interrogative).
    pub wh_lemmas: Vec<String>,
    /// Require a copular "to be" immediately after the wh-word.
    pub copula: bool,
    /// The focus must be a synonym/hyponym of one of these ontology
    /// classes (empty = no semantic requirement).
    pub focus_concepts: Vec<String>,
    /// …or literally one of these lemmas.
    pub focus_literals: Vec<String>,
    /// Whether a focus is required at all.
    pub needs_focus: bool,
    /// A verb lemma that must appear in one of the question's verb chains
    /// ("stand" for "What does X stand for?").
    pub verb_lemma: Option<String>,
    /// The answer type this pattern assigns.
    pub answer_type: AnswerType,
    /// Higher priority patterns are tried first.
    pub priority: i32,
}

impl QuestionPattern {
    fn new(name: &str, answer_type: AnswerType) -> QuestionPattern {
        QuestionPattern {
            name: name.to_owned(),
            wh_lemmas: Vec::new(),
            copula: false,
            focus_concepts: Vec::new(),
            focus_literals: Vec::new(),
            needs_focus: false,
            verb_lemma: None,
            answer_type,
            priority: 0,
        }
    }

    fn wh(mut self, lemmas: &[&str]) -> Self {
        self.wh_lemmas = lemmas.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    fn with_copula(mut self) -> Self {
        self.copula = true;
        self
    }

    fn focus_of(mut self, concepts: &[&str]) -> Self {
        self.focus_concepts = concepts.iter().map(|s| (*s).to_owned()).collect();
        self.needs_focus = true;
        self
    }

    fn focus_word(mut self, literals: &[&str]) -> Self {
        self.focus_literals = literals.iter().map(|s| (*s).to_owned()).collect();
        self.needs_focus = true;
        self
    }

    fn with_priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    fn with_verb(mut self, lemma: &str) -> Self {
        self.verb_lemma = Some(lemma.to_owned());
        self
    }

    /// Whether a focus lemma satisfies this pattern's semantic constraint.
    pub fn focus_matches(&self, focus: Option<&str>, ontology: &Ontology) -> bool {
        if !self.needs_focus {
            return true;
        }
        let Some(focus) = focus else { return false };
        if self.focus_literals.iter().any(|l| l == focus) {
            return true;
        }
        if self.focus_concepts.is_empty() {
            return self.focus_literals.is_empty();
        }
        for concept in &self.focus_concepts {
            let Some(target) = ontology.class_for(concept) else {
                continue;
            };
            // Synonym: the focus is a label of the target synset.
            if ontology.concepts_for(focus).contains(&target) {
                return true;
            }
            // Hyponym: the focus names a class below the target.
            if let Some(focus_class) = ontology.class_for(focus) {
                if ontology.is_a(focus_class, target) {
                    return true;
                }
            }
        }
        false
    }

    /// Whether the interrogative lemma satisfies the pattern.
    pub fn wh_matches(&self, wh: Option<&str>) -> bool {
        match wh {
            Some(w) => self.wh_lemmas.is_empty() || self.wh_lemmas.iter().any(|l| l == w),
            None => false,
        }
    }

    /// A human-readable rendering in the paper's style:
    /// `[WHAT] [to be] [synonym of weather | temperature] …`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.wh_lemmas.is_empty() {
            parts.push("[WH]".to_owned());
        } else {
            parts.push(format!(
                "[{}]",
                self.wh_lemmas
                    .iter()
                    .map(|w| w.to_uppercase())
                    .collect::<Vec<_>>()
                    .join(" | ")
            ));
        }
        if self.copula {
            parts.push("[to be]".to_owned());
        }
        if let Some(v) = &self.verb_lemma {
            parts.push(format!("[to {v}]"));
        }
        if !self.focus_concepts.is_empty() {
            parts.push(format!("[synonym of {}]", self.focus_concepts.join(" | ")));
        } else if !self.focus_literals.is_empty() {
            parts.push(format!("[{}]", self.focus_literals.join(" | ")));
        }
        parts.push("…".to_owned());
        parts.join(" ")
    }
}

/// The stock pattern bank covering the 20-class taxonomy.
pub fn default_patterns() -> Vec<QuestionPattern> {
    vec![
        // Temporal foci outrank generic semantic mapping.
        QuestionPattern::new("wh-year", AnswerType::TemporalYear)
            .wh(&["what", "which"])
            .focus_word(&["year"])
            .with_priority(30),
        QuestionPattern::new("wh-month", AnswerType::TemporalMonth)
            .wh(&["what", "which"])
            .focus_word(&["month"])
            .with_priority(30),
        QuestionPattern::new("wh-date", AnswerType::TemporalDate)
            .wh(&["what", "which"])
            .focus_word(&["date", "day"])
            .with_priority(30),
        // Numeric foci.
        QuestionPattern::new("wh-percentage", AnswerType::NumericalPercentage)
            .wh(&["what", "which"])
            .focus_of(&["percentage"])
            .with_priority(25),
        QuestionPattern::new("wh-price", AnswerType::NumericalEconomic)
            .wh(&["what", "which", "how"])
            .focus_of(&["price", "money", "fare"])
            .with_priority(25),
        QuestionPattern::new("wh-age", AnswerType::NumericalAge)
            .wh(&["what", "how"])
            .focus_word(&["age", "old"])
            .with_priority(25),
        QuestionPattern::new("wh-period", AnswerType::NumericalPeriod)
            .wh(&["what", "how"])
            .focus_of(&["time period"])
            .focus_word(&["period", "duration", "long"])
            .with_priority(24),
        QuestionPattern::new("wh-measure", AnswerType::NumericalMeasure)
            .wh(&["what", "which"])
            .focus_of(&["measure", "degree", "distance"])
            .with_priority(22),
        // Semantic foci via the ontology.
        QuestionPattern::new("wh-profession", AnswerType::Profession)
            .wh(&["what", "which"])
            .focus_of(&["profession"])
            .with_priority(21),
        QuestionPattern::new("wh-capital", AnswerType::PlaceCapital)
            .wh(&["what", "which"])
            .focus_of(&["capital"])
            .with_priority(21),
        QuestionPattern::new("wh-city", AnswerType::PlaceCity)
            .wh(&["what", "which"])
            .focus_of(&["city"])
            .with_priority(20),
        QuestionPattern::new("wh-country", AnswerType::PlaceCountry)
            .wh(&["what", "which"])
            .focus_of(&["country"])
            .with_priority(20),
        QuestionPattern::new("wh-place", AnswerType::Place)
            .wh(&["what", "which"])
            .focus_of(&["location", "airport"])
            .with_priority(18),
        QuestionPattern::new("wh-person", AnswerType::Person)
            .wh(&["what", "which"])
            .focus_of(&["person"])
            .with_priority(18),
        QuestionPattern::new("wh-group", AnswerType::Group)
            .wh(&["what", "which"])
            .focus_of(&["group", "organization"])
            .with_priority(18),
        QuestionPattern::new("wh-event", AnswerType::Event)
            .wh(&["what", "which"])
            .focus_of(&["event"])
            .with_priority(18),
        QuestionPattern::new("wh-abbreviation", AnswerType::Abbreviation)
            .wh(&["what", "which"])
            .focus_of(&["abbreviation"])
            .with_priority(18),
        // "What does JFK stand for?" — answered from the ontology's
        // synonym sets rather than the corpus.
        QuestionPattern::new("stand-for", AnswerType::Abbreviation)
            .wh(&["what"])
            .with_verb("stand")
            .with_priority(26),
        // "What was the profession of La Guardia?"
        QuestionPattern::new("wh-profession-of", AnswerType::Profession)
            .wh(&["what", "which", "who"])
            .focus_of(&["profession"])
            .with_priority(26),
        // Bare interrogatives.
        QuestionPattern::new("who", AnswerType::Person)
            .wh(&["who", "whom"])
            .with_priority(15),
        QuestionPattern::new("when", AnswerType::TemporalDate)
            .wh(&["when"])
            .with_priority(15),
        QuestionPattern::new("where", AnswerType::Place)
            .wh(&["where"])
            .with_priority(15),
        QuestionPattern::new("how-many", AnswerType::NumericalQuantity)
            .wh(&["how"])
            .with_priority(10),
        // Concrete objects ("Which star…", "What instrument…").
        QuestionPattern::new("wh-object", AnswerType::Object)
            .wh(&["what", "which"])
            .focus_of(&["object", "artifact"])
            .with_priority(8),
        // Definition: "What is X?" with a proper-noun/unknown focus.
        QuestionPattern::new("definition", AnswerType::Definition)
            .wh(&["what"])
            .with_copula()
            .with_priority(2),
        // Last resort.
        QuestionPattern::new("fallback-object", AnswerType::Object).with_priority(-10),
    ]
}

/// The Step-4 tuned pattern of the paper's experiment:
/// "\[WHAT\] \[to be\] \[synonym of weather | temperature\] …" →
/// `Number + [ºC | F]`.
pub fn temperature_pattern() -> QuestionPattern {
    QuestionPattern::new("weather-temperature", AnswerType::NumericalTemperature)
        .wh(&["what", "how"])
        .with_copula()
        .focus_of(&["weather", "temperature"])
        .with_priority(40)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_ontology::upper_ontology;

    #[test]
    fn focus_matching_uses_synonyms_and_hyponyms() {
        let onto = upper_ontology();
        let p = temperature_pattern();
        assert!(p.focus_matches(Some("weather"), &onto));
        assert!(p.focus_matches(Some("temperature"), &onto));
        // "weather condition" is a synonym label of the weather synset.
        assert!(p.focus_matches(Some("weather condition"), &onto));
        assert!(!p.focus_matches(Some("price"), &onto));
        assert!(!p.focus_matches(None, &onto));
    }

    #[test]
    fn hyponym_focus_matches_country_pattern() {
        let onto = upper_ontology();
        let country = default_patterns()
            .into_iter()
            .find(|p| p.name == "wh-country")
            .unwrap();
        assert!(country.focus_matches(Some("country"), &onto));
        assert!(country.focus_matches(Some("nation"), &onto));
        assert!(!country.focus_matches(Some("city"), &onto));
    }

    #[test]
    fn wh_matching() {
        let p = temperature_pattern();
        assert!(p.wh_matches(Some("what")));
        assert!(!p.wh_matches(Some("who")));
        assert!(!p.wh_matches(None));
        let any = QuestionPattern::new("x", AnswerType::Object);
        assert!(any.wh_matches(Some("whatever")));
    }

    #[test]
    fn describe_matches_paper_style() {
        assert_eq!(
            temperature_pattern().describe(),
            "[WHAT | HOW] [to be] [synonym of weather | temperature] …"
        );
    }

    #[test]
    fn default_bank_covers_all_stock_types() {
        let bank = default_patterns();
        let covered: std::collections::HashSet<AnswerType> =
            bank.iter().map(|p| p.answer_type).collect();
        for t in [
            AnswerType::Person,
            AnswerType::PlaceCity,
            AnswerType::PlaceCountry,
            AnswerType::TemporalDate,
            AnswerType::NumericalQuantity,
            AnswerType::Definition,
            AnswerType::Object,
        ] {
            assert!(covered.contains(&t), "missing pattern for {t}");
        }
        // The temperature type is NOT in the default bank (it is tuned in).
        assert!(!covered.contains(&AnswerType::NumericalTemperature));
    }

    #[test]
    fn priorities_put_tuned_pattern_first() {
        let mut bank = default_patterns();
        bank.push(temperature_pattern());
        bank.sort_by_key(|p| -p.priority);
        assert_eq!(bank[0].name, "weather-temperature");
    }
}
