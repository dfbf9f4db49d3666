//! The information-retrieval substrate.
//!
//! The paper runs IR "as a first filtering phase, and QA works on IR
//! output". AliQAn specifically uses **IR-n** (Llopis, Vicedo & Ferrández,
//! CLEF 2002), a *passage retrieval* system where each passage is a window
//! of `n` consecutive sentences (the paper's footnote 6: eight sentences).
//! This crate implements that substrate from scratch:
//!
//! * [`document`] — the document model (URL, format, text) with HTML/XML
//!   text extraction ("our approach handles any kind of unstructured data
//!   (e.g. XML, HTML or PDF)") and an append-only [`document::DocumentStore`];
//! * [`index`] — an inverted index over case-folded, stopped, lemmatised
//!   terms, with optional parallel construction (crossbeam scoped threads);
//! * [`search`] — ranked document retrieval (Okapi BM25 and TF-IDF cosine);
//! * [`passage`] — the IR-n passage retrieval used by AliQAn's Module 2,
//!   driven by interned sentence-level postings: queries compile once into
//!   a [`passage::PassageQuery`], candidate documents come from the
//!   postings, and documents without query terms are never scored
//!   ([`passage::RetrievalStats`] reports the pruning);
//! * [`mdir`] — the multidimensional-IR **baseline** of McCabe et al.
//!   (SIGIR 2000, the paper's reference \[11\]): documents categorised along
//!   location × time dimensions, filtered OLAP-style before term search.

//! ```
//! use dwqa_ir::{Document, DocumentStore, DocFormat, InvertedIndex, PassageRetriever};
//! use dwqa_nlp::Lexicon;
//!
//! let lexicon = Lexicon::english();
//! let mut store = DocumentStore::new();
//! store.add(Document::new("u", DocFormat::Plain, "", "The temperature in Barcelona was mild."));
//! let index = InvertedIndex::build(&lexicon, &store);
//! let retriever = PassageRetriever::build(&lexicon, &store, 8);
//! let passages = retriever.retrieve_text(&index, &lexicon, "Barcelona temperature", 1);
//! assert_eq!(passages.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod document;
pub mod index;
pub mod mdir;
pub mod passage;
pub mod search;

pub use document::{DocFormat, DocId, Document, DocumentStore};
pub use index::InvertedIndex;
pub use mdir::{CubeSlice, MultidimensionalIndex};
pub use passage::{Passage, PassageQuery, PassageRetriever, RetrievalStats};
pub use search::{SearchHit, Similarity};
