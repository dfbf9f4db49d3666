//! The Information-Extraction baseline.
//!
//! The paper's reference \[1\] (Badia 2006) proposes template-filling IE as
//! the bridge between documents and databases. The paper's objection is
//! twofold: IE "does not facilitate the processing of huge amounts of
//! documents" (it scans *everything*, with no IR filtering) and "is
//! limited to a set of predefined templates". This baseline implements
//! exactly that design so both objections become measurable: its cost is
//! linear in the corpus, and questions outside its template set simply
//! return nothing.

use dwqa_common::Date;
use dwqa_ir::DocumentStore;
use dwqa_nlp::{analyze_text, EntityKind, Lexicon, TempUnit};

/// A slot-filling template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IeTemplate {
    /// `(temperature, date, location?)` — the weather template.
    Temperature,
    /// `(amount, currency)` — a price template.
    Price,
}

/// A filled template.
#[derive(Debug, Clone, PartialEq)]
pub struct FilledTemplate {
    /// Which template matched.
    pub template: IeTemplate,
    /// The slots, in template order, rendered as text.
    pub slots: Vec<String>,
    /// The numeric payload (Celsius for temperatures, amount for prices).
    pub value: f64,
    /// Associated date, if the template has a date slot and it filled.
    pub date: Option<Date>,
    /// Source URL.
    pub url: String,
}

/// The IE engine: a fixed template set applied to the whole corpus.
pub struct IeBaseline {
    templates: Vec<IeTemplate>,
}

impl IeBaseline {
    /// Creates the engine with the given template set.
    pub fn new(templates: Vec<IeTemplate>) -> IeBaseline {
        IeBaseline { templates }
    }

    /// Whether any template can serve the given need. Questions outside
    /// the set ("Who was the mayor of New York?") are unanswerable.
    pub fn covers(&self, template: IeTemplate) -> bool {
        self.templates.contains(&template)
    }

    /// Scans the **entire** corpus (no IR filtering — the scaling
    /// objection) and fills every template occurrence.
    pub fn scan(&self, store: &DocumentStore) -> Vec<FilledTemplate> {
        let lexicon = Lexicon::english();
        let mut out = Vec::new();
        for (_, doc) in store.iter() {
            let sentences = analyze_text(&lexicon, &doc.text);
            let mut last_date: Option<Date> = None;
            for s in &sentences {
                for e in &s.entities {
                    if let EntityKind::FullDate(d) = e.kind {
                        last_date = Some(d);
                    }
                }
                for e in &s.entities {
                    match e.kind {
                        EntityKind::Temperature { value, unit }
                            if self.covers(IeTemplate::Temperature) =>
                        {
                            let celsius = unit.to_celsius(value);
                            out.push(FilledTemplate {
                                template: IeTemplate::Temperature,
                                slots: vec![
                                    format!("{value}{}", unit.symbol()),
                                    last_date.map(|d| d.iso_format()).unwrap_or_default(),
                                ],
                                value: celsius,
                                date: last_date,
                                url: doc.url.clone(),
                            });
                            let _ = TempUnit::Celsius;
                        }
                        EntityKind::Money {
                            amount,
                            ref currency,
                        } if self.covers(IeTemplate::Price) => {
                            out.push(FilledTemplate {
                                template: IeTemplate::Price,
                                slots: vec![format!("{amount} {currency}")],
                                value: amount,
                                date: None,
                                url: doc.url.clone(),
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_ir::{DocFormat, Document};

    fn store() -> DocumentStore {
        let mut s = DocumentStore::new();
        s.add(Document::new(
            "weather",
            DocFormat::Plain,
            "",
            "Saturday, January 31, 2004\nBarcelona Weather: Temperature 8º C today",
        ));
        s.add(Document::new(
            "promo",
            DocFormat::Plain,
            "",
            "Last minute flights to Madrid from 49 euros.",
        ));
        s.add(Document::new(
            "history",
            DocFormat::Plain,
            "",
            "Fiorello La Guardia was the mayor of New York.",
        ));
        s
    }

    #[test]
    fn templates_fill_their_slots() {
        let ie = IeBaseline::new(vec![IeTemplate::Temperature, IeTemplate::Price]);
        let filled = ie.scan(&store());
        let temp = filled
            .iter()
            .find(|f| f.template == IeTemplate::Temperature)
            .unwrap();
        assert_eq!(temp.value, 8.0);
        assert_eq!(temp.date, Date::from_ymd(2004, 1, 31));
        let price = filled
            .iter()
            .find(|f| f.template == IeTemplate::Price)
            .unwrap();
        assert_eq!(price.value, 49.0);
    }

    #[test]
    fn questions_outside_the_template_set_are_unanswerable() {
        let ie = IeBaseline::new(vec![IeTemplate::Temperature]);
        assert!(!ie.covers(IeTemplate::Price));
        let filled = ie.scan(&store());
        // The mayor fact exists in the corpus but no template captures it.
        assert!(filled.iter().all(|f| f.template == IeTemplate::Temperature));
    }

    #[test]
    fn scan_visits_every_document() {
        // The defining cost: IE touches all documents regardless of the
        // information need.
        let ie = IeBaseline::new(vec![IeTemplate::Price]);
        let filled = ie.scan(&store());
        assert_eq!(filled.len(), 1);
        // (Cost measured in the benchmark suite; here we just assert the
        // full-corpus semantics produced results from the promo page even
        // though a "temperature question" user never needed it.)
        assert_eq!(filled[0].url, "promo");
    }
}
