//! IR-n passage retrieval.
//!
//! IR-n (the paper's reference \[9\], AliQAn's Module 2 back end) ranks
//! *passages* — windows of `n` consecutive sentences — instead of whole
//! documents, so the QA extractor works on a small, dense piece of text.
//! The paper's footnote 6 fixes `n = 8` for its experiment; the window
//! size is a parameter here (and is swept in the benchmark suite).
//!
//! ## Index-driven candidate pruning
//!
//! Retrieval is driven by **sentence-level postings** (`Symbol →
//! (document, sentence)` pairs, built once at index time), in the spirit
//! of classic inverted-file query evaluation: a query is compiled once
//! into interned symbols with IDF-scaled weights ([`PassageQuery`]), the
//! candidate document set is gathered from the postings of the query's
//! terms, and only windows around matching sentences of candidate
//! documents are ever scored. Documents containing no query term are
//! never touched, so per-query cost is proportional to the number of
//! *matching* sentences, not to corpus size. The pre-postings exhaustive
//! scan is kept as [`PassageRetriever::retrieve_weighted_exhaustive`] —
//! the reference implementation the equivalence proptests and the
//! `benches/retrieval.rs` baseline run against.

use crate::document::{DocId, DocumentStore};
use crate::index::{index_terms, InvertedIndex};
use dwqa_common::{Interner, Symbol};
use dwqa_nlp::Lexicon;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// A retrieved passage.
#[derive(Debug, Clone, PartialEq)]
pub struct Passage {
    /// The source document.
    pub doc: DocId,
    /// Index of the first sentence of the window.
    pub first_sentence: usize,
    /// The sentences of the window.
    pub sentences: Vec<String>,
    /// Retrieval score.
    pub score: f64,
}

impl Passage {
    /// The passage text (sentences joined). Allocates; callers that only
    /// need to scan sentences should iterate [`Passage::sentences`] or
    /// use [`Passage::contains_folded`] instead.
    pub fn text(&self) -> String {
        self.sentences.join(" ")
    }

    /// Whether any sentence of the passage contains `needle` after case
    /// folding — without materialising the joined passage text.
    pub fn contains_folded(&self, needle: &str) -> bool {
        let needle = dwqa_common::text::fold(needle);
        self.sentences
            .iter()
            .any(|s| dwqa_common::text::fold(s).contains(&needle))
    }
}

/// One sentence-level posting: a document and a sentence inside it that
/// contains the term. Sorted by `(doc, sentence)` construction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SentPosting {
    doc: u32,
    sent: u32,
}

/// A query compiled against a retriever's vocabulary: distinct terms
/// resolved to symbols (first-occurrence order, duplicate weights merged
/// by max) with the term's IDF baked into the weight. Terms outside the
/// vocabulary occur in no sentence and are dropped at compile time.
///
/// Compiling interns nothing and clones no strings — the query side of
/// retrieval is allocation-free per term.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassageQuery {
    /// `(symbol, weight × idf)` in first-occurrence order.
    terms: Vec<(Symbol, f64)>,
}

impl PassageQuery {
    /// Number of distinct in-vocabulary terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no query term is in the retriever's vocabulary.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Counters from one pruned retrieval: how much of the corpus the
/// postings allowed the scorer to skip. Rendered by the engine's
/// `:stats` as the candidate-set / pruning read-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Documents in the corpus.
    pub docs_total: usize,
    /// Documents containing at least one query term (scored).
    pub docs_candidate: usize,
    /// Documents never touched (`docs_total - docs_candidate`).
    pub docs_pruned: usize,
    /// Candidate windows actually scored.
    pub windows_scored: usize,
}

/// A candidate window ranked for top-k selection. The ordering is the
/// total order the final ranking uses: score descending, then document
/// ascending, then start ascending — `a > b` means `a` ranks better.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f64,
    doc: u32,
    start: u32,
    len: u32,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.doc.cmp(&self.doc))
            .then_with(|| other.start.cmp(&self.start))
    }
}

/// Precomputed sentence structure for passage retrieval.
#[derive(Debug, Clone)]
pub struct PassageRetriever {
    /// The term vocabulary (index-term strings → symbols).
    vocabulary: Interner,
    /// Per document: the sentence list.
    sentences: Vec<Vec<String>>,
    /// Per document, per sentence: the sorted, distinct index-term
    /// symbols (the exhaustive reference scans these).
    sentence_terms: Vec<Vec<Vec<Symbol>>>,
    /// Per symbol (by index): the sentence-level postings list.
    postings: Vec<Vec<SentPosting>>,
    /// Window size in sentences (the paper uses 8).
    window: usize,
}

impl PassageRetriever {
    /// Default window size (paper footnote 6).
    pub const DEFAULT_WINDOW: usize = 8;

    /// Up to this many non-overlapping windows may come from one
    /// document (a month-long weather page has several relevant spots).
    const PER_DOC: usize = 3;

    /// Builds the retriever over a document store, sequentially.
    pub fn build(lexicon: &Lexicon, store: &DocumentStore, window: usize) -> PassageRetriever {
        let per_doc: Vec<_> = store
            .iter()
            .map(|(_, doc)| Self::analyze_doc(lexicon, &doc.text))
            .collect();
        Self::assemble(per_doc, window)
    }

    /// Builds the retriever using `threads` worker threads. Sentence
    /// analysis dominates build time and is embarrassingly parallel;
    /// assembly (interning + postings) is sequential and cheap. Produces
    /// exactly the same structure as [`PassageRetriever::build`].
    pub fn build_parallel(
        lexicon: &Lexicon,
        store: &DocumentStore,
        window: usize,
        threads: usize,
    ) -> PassageRetriever {
        let threads = threads.max(1);
        let docs: Vec<&str> = store.iter().map(|(_, d)| d.text.as_str()).collect();
        let chunk = docs.len().div_ceil(threads).max(1);
        let per_doc = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = docs
                .chunks(chunk)
                .map(|chunk_docs| {
                    scope.spawn(move |_| {
                        chunk_docs
                            .iter()
                            .map(|text| Self::analyze_doc(lexicon, text))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut per_doc = Vec::with_capacity(docs.len());
            for handle in handles {
                per_doc.extend(handle.join().expect("passage worker thread panicked"));
            }
            per_doc
        })
        .expect("passage worker thread panicked");
        Self::assemble(per_doc, window)
    }

    /// Splits one document into sentences and their index terms.
    fn analyze_doc(lexicon: &Lexicon, text: &str) -> (Vec<String>, Vec<Vec<String>>) {
        let sents = dwqa_nlp::split_sentences(text);
        let terms: Vec<Vec<String>> = sents.iter().map(|s| index_terms(lexicon, s)).collect();
        (sents, terms)
    }

    /// Interns every sentence's terms and builds the postings lists.
    fn assemble(per_doc: Vec<(Vec<String>, Vec<Vec<String>>)>, window: usize) -> PassageRetriever {
        let mut vocabulary = Interner::new();
        let mut sentences = Vec::with_capacity(per_doc.len());
        let mut sentence_terms = Vec::with_capacity(per_doc.len());
        let mut postings: Vec<Vec<SentPosting>> = Vec::new();
        for (doc, (sents, term_lists)) in per_doc.into_iter().enumerate() {
            let mut doc_terms = Vec::with_capacity(term_lists.len());
            for (sent, terms) in term_lists.into_iter().enumerate() {
                let mut syms: Vec<Symbol> = terms.iter().map(|t| vocabulary.intern(t)).collect();
                syms.sort_unstable();
                syms.dedup();
                postings.resize(vocabulary.len(), Vec::new());
                for &sym in &syms {
                    postings[sym.index()].push(SentPosting {
                        doc: doc as u32,
                        sent: sent as u32,
                    });
                }
                doc_terms.push(syms);
            }
            sentences.push(sents);
            sentence_terms.push(doc_terms);
        }
        PassageRetriever {
            vocabulary,
            sentences,
            sentence_terms,
            postings,
            window: window.max(1),
        }
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.sentences.len()
    }

    /// Vocabulary size (distinct sentence-level index terms).
    pub fn num_terms(&self) -> usize {
        self.vocabulary.len()
    }

    /// Compiles a weighted term sequence into a [`PassageQuery`]:
    /// duplicates are merged (max weight, first-occurrence order kept),
    /// out-of-vocabulary terms are dropped, and each surviving term's
    /// weight is scaled by its IDF from `index`. No strings are cloned
    /// or interned — terms are resolved against the existing vocabulary.
    pub fn compile_query<'a, I>(&self, index: &InvertedIndex, terms: I) -> PassageQuery
    where
        I: IntoIterator<Item = (&'a str, f64)>,
    {
        let mut distinct: Vec<(Symbol, f64)> = Vec::new();
        let mut slot: HashMap<Symbol, usize> = HashMap::new();
        for (term, weight) in terms {
            let Some(sym) = self.vocabulary.get(term) else {
                continue; // occurs in no sentence: contributes 0 everywhere
            };
            match slot.get(&sym) {
                Some(&i) => distinct[i].1 = distinct[i].1.max(weight),
                None => {
                    slot.insert(sym, distinct.len());
                    distinct.push((sym, weight));
                }
            }
        }
        for (sym, weight) in &mut distinct {
            *weight *= index.idf(self.vocabulary.resolve(*sym));
        }
        PassageQuery { terms: distinct }
    }

    /// Retrieves the best passage of each matching document, ranked by
    /// score; at most `k` passages. Scores are sums of the IDF (from
    /// `index`) of the distinct query terms present in the window, so rare
    /// terms ("barcelona") dominate frequent ones.
    pub fn retrieve(&self, index: &InvertedIndex, terms: &[String], k: usize) -> Vec<Passage> {
        let query = self.compile_query(index, terms.iter().map(|t| (t.as_str(), 1.0)));
        self.retrieve_query(&query, k).0
    }

    /// Like [`PassageRetriever::retrieve`], with a per-term weight
    /// multiplying the term's IDF. The QA side uses this to make the
    /// question's *date* terms dominate window selection.
    pub fn retrieve_weighted(
        &self,
        index: &InvertedIndex,
        terms: &[(String, f64)],
        k: usize,
    ) -> Vec<Passage> {
        let query = self.compile_query(index, terms.iter().map(|(t, w)| (t.as_str(), *w)));
        self.retrieve_query(&query, k).0
    }

    /// The pruned retrieval core: gathers the candidate document set from
    /// the sentence postings, scores only windows around matching
    /// sentences, and selects the global top `k` with a bounded heap.
    /// Returns the ranked passages plus the pruning counters.
    ///
    /// Rank- and score-identical to
    /// [`PassageRetriever::retrieve_weighted_exhaustive`] (the proptests
    /// in this module prove byte-identical output).
    pub fn retrieve_query(&self, query: &PassageQuery, k: usize) -> (Vec<Passage>, RetrievalStats) {
        let span = dwqa_obs::span!("retrieve", k);
        let (passages, stats) = self.retrieve_query_core(query, k);
        span.record("docs_total", stats.docs_total);
        span.record("docs_candidate", stats.docs_candidate);
        span.record("docs_pruned", stats.docs_pruned);
        span.record("windows_scored", stats.windows_scored);
        span.record("returned", passages.len());
        dwqa_obs::counter_add(dwqa_obs::names::RETRIEVAL_COUNT, 1);
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_TOTAL,
            stats.docs_total as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_CANDIDATE,
            stats.docs_candidate as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_PRUNED,
            stats.docs_pruned as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_WINDOWS_SCORED,
            stats.windows_scored as u64,
        );
        (passages, stats)
    }

    /// The uninstrumented retrieval core behind
    /// [`PassageRetriever::retrieve_query`].
    fn retrieve_query_core(
        &self,
        query: &PassageQuery,
        k: usize,
    ) -> (Vec<Passage>, RetrievalStats) {
        let mut stats = RetrievalStats {
            docs_total: self.sentences.len(),
            docs_pruned: self.sentences.len(),
            ..RetrievalStats::default()
        };
        if query.terms.is_empty() || k == 0 {
            return (Vec::new(), stats);
        }

        // Candidate documents: any document holding ≥ 1 query term.
        let mut candidates: Vec<u32> = Vec::new();
        for &(sym, _) in &query.terms {
            candidates.extend(self.postings[sym.index()].iter().map(|p| p.doc));
        }
        candidates.sort_unstable();
        candidates.dedup();
        stats.docs_candidate = candidates.len();
        stats.docs_pruned = stats.docs_total - candidates.len();

        // Per-term cursor into its postings list; candidate docs ascend,
        // so each postings list is traversed once across all documents.
        let mut cursors: Vec<usize> = vec![0; query.terms.len()];
        // Scratch, reused across documents.
        let mut ranges: Vec<(usize, usize)> = vec![(0, 0); query.terms.len()];
        let mut matched: Vec<u32> = Vec::new();
        let mut hits: Vec<f64> = Vec::new();
        let mut windows: Vec<Ranked> = Vec::new();
        // Bounded min-heap: the worst of the current top-k on top.
        let mut top: BinaryHeap<std::cmp::Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);

        for &doc in &candidates {
            let n = self.sentences[doc as usize].len();
            if n == 0 {
                continue;
            }
            // This document's sentence range inside each term's postings.
            for (ti, &(sym, _)) in query.terms.iter().enumerate() {
                let plist = &self.postings[sym.index()];
                let mut c = cursors[ti];
                while c < plist.len() && plist[c].doc < doc {
                    c += 1;
                }
                let start = c;
                while c < plist.len() && plist[c].doc == doc {
                    c += 1;
                }
                cursors[ti] = c;
                ranges[ti] = (start, c);
            }
            // Matching sentences (sorted, distinct) and their per-sentence
            // hit weights, accumulated in query-term order so floating-
            // point sums match the exhaustive reference bit for bit.
            matched.clear();
            for (ti, _) in query.terms.iter().enumerate() {
                let (lo, hi) = ranges[ti];
                matched.extend(
                    self.postings[query.terms[ti].0.index()][lo..hi]
                        .iter()
                        .map(|p| p.sent),
                );
            }
            matched.sort_unstable();
            matched.dedup();
            hits.clear();
            hits.resize(matched.len(), 0.0);
            for (ti, &(sym, weight)) in query.terms.iter().enumerate() {
                let (lo, hi) = ranges[ti];
                for p in &self.postings[sym.index()][lo..hi] {
                    let mi = matched
                        .binary_search(&p.sent)
                        .expect("matched holds every posted sentence");
                    hits[mi] += weight;
                }
            }

            let starts_count = if n > self.window {
                n - self.window + 1
            } else {
                1
            };
            // Candidate starts: union of the start ranges around each
            // matching sentence, walked in ascending order.
            windows.clear();
            let mut per_term_ptr: Vec<usize> = ranges.iter().map(|&(lo, _)| lo).collect();
            let mut matched_ptr = 0usize;
            let mut next_start = 0usize;
            for &sent in &matched {
                let sent = sent as usize;
                let lo = (sent + 1).saturating_sub(self.window).max(next_start);
                let hi = sent.min(starts_count - 1);
                if lo > hi {
                    continue;
                }
                for start in lo..=hi {
                    let end = (start + self.window).min(n);
                    // Term presence via the per-term sentence cursors:
                    // summed in query order (float-identical to the
                    // exhaustive scan).
                    let mut score = 0.0;
                    for (ti, &(sym, weight)) in query.terms.iter().enumerate() {
                        let plist = &self.postings[sym.index()];
                        let (_, hi_t) = ranges[ti];
                        let mut p = per_term_ptr[ti];
                        while p < hi_t && (plist[p].sent as usize) < start {
                            p += 1;
                        }
                        per_term_ptr[ti] = p;
                        if p < hi_t && (plist[p].sent as usize) < end {
                            score += weight;
                        }
                    }
                    stats.windows_scored += 1;
                    if score <= 0.0 {
                        continue;
                    }
                    // Proximity bonus: query terms co-occurring in one
                    // sentence are worth more than the same terms
                    // scattered over the window (this is what pins a
                    // dated question to the right day of a month-long
                    // weather page).
                    while matched_ptr < matched.len() && (matched[matched_ptr] as usize) < start {
                        matched_ptr += 1;
                    }
                    let mut best_sentence = 0.0f64;
                    let mut best_pos = 0usize;
                    let mut mi = matched_ptr;
                    while mi < matched.len() && (matched[mi] as usize) < end {
                        if hits[mi] > best_sentence {
                            best_sentence = hits[mi];
                            best_pos = matched[mi] as usize - start;
                        }
                        mi += 1;
                    }
                    score += 0.5 * best_sentence;
                    // Positional tie-break: among windows containing the
                    // same best-matching sentence, prefer the one where it
                    // appears early, so the sentences *after* it (where
                    // the answer to a dated heading lives) stay inside
                    // the window.
                    let len = (end - start).max(1) as f64;
                    score += 0.01 * best_sentence * (1.0 - best_pos as f64 / len);
                    windows.push(Ranked {
                        score,
                        doc,
                        start: start as u32,
                        len: (end - start) as u32,
                    });
                }
                next_start = hi + 1;
            }
            // Greedy non-overlapping selection of the doc's best windows.
            windows.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(Ordering::Equal)
                    .then(a.start.cmp(&b.start))
            });
            let mut taken: Vec<(u32, u32)> = Vec::new();
            for &w in &windows {
                if taken.len() == Self::PER_DOC {
                    break;
                }
                let overlaps = taken
                    .iter()
                    .any(|&(s, l)| w.start < s + l && s < w.start + w.len);
                if overlaps {
                    continue;
                }
                taken.push((w.start, w.len));
                if top.len() < k {
                    top.push(std::cmp::Reverse(w));
                } else if let Some(&std::cmp::Reverse(worst)) = top.peek() {
                    if w > worst {
                        top.pop();
                        top.push(std::cmp::Reverse(w));
                    }
                }
            }
        }

        // Materialise the survivors best-first; sentence strings are
        // cloned only for the k passages actually returned.
        let mut best: Vec<Ranked> = top.into_iter().map(|r| r.0).collect();
        best.sort_by(|a, b| b.cmp(a));
        let passages = best
            .into_iter()
            .map(|r| {
                let start = r.start as usize;
                let len = r.len as usize;
                Passage {
                    doc: DocId(r.doc),
                    first_sentence: start,
                    sentences: self.sentences[r.doc as usize][start..start + len].to_vec(),
                    score: r.score,
                }
            })
            .collect();
        (passages, stats)
    }

    /// The pre-postings exhaustive scan: slides a window over **every
    /// sentence of every document** and scores each position. Kept as the
    /// reference implementation — the equivalence proptests and
    /// `benches/retrieval.rs` compare the pruned path against it; it is
    /// not part of the serving path.
    pub fn retrieve_weighted_exhaustive(
        &self,
        index: &InvertedIndex,
        terms: &[(String, f64)],
        k: usize,
    ) -> Vec<Passage> {
        // The original O(q²) first-occurrence dedup, then symbols
        // resolved for membership tests (out-of-vocabulary terms keep a
        // slot and simply never match, exactly like the old string sets).
        let query: Vec<(Option<Symbol>, f64)> = {
            let mut distinct: Vec<(&str, f64)> = Vec::new();
            for (t, w) in terms {
                match distinct.iter_mut().find(|(d, _)| *d == t) {
                    Some(entry) => entry.1 = entry.1.max(*w),
                    None => distinct.push((t.as_str(), *w)),
                }
            }
            distinct
                .into_iter()
                .map(|(t, w)| (self.vocabulary.get(t), w * index.idf(t)))
                .collect()
        };
        let contains = |doc: usize, sent: usize, sym: Option<Symbol>| -> bool {
            sym.is_some_and(|s| self.sentence_terms[doc][sent].binary_search(&s).is_ok())
        };
        let mut best: Vec<Passage> = Vec::new();
        for (doc_idx, sents) in self.sentences.iter().enumerate() {
            let mut candidates: Vec<(f64, usize, usize)> = Vec::new(); // (score, start, len)
            let n = sents.len();
            if n == 0 {
                continue;
            }
            let starts = if n > self.window {
                n - self.window + 1
            } else {
                1
            };
            for start in 0..starts {
                let end = (start + self.window).min(n);
                let mut score = 0.0;
                for &(sym, idf) in &query {
                    if (start..end).any(|s| contains(doc_idx, s, sym)) {
                        score += idf;
                    }
                }
                if score <= 0.0 {
                    continue;
                }
                let mut best_sentence = 0.0f64;
                let mut best_pos = 0usize;
                for (pos, s) in (start..end).enumerate() {
                    let hit: f64 = query
                        .iter()
                        .filter(|&&(sym, _)| contains(doc_idx, s, sym))
                        .map(|&(_, idf)| idf)
                        .sum();
                    if hit > best_sentence {
                        best_sentence = hit;
                        best_pos = pos;
                    }
                }
                score += 0.5 * best_sentence;
                let len = (end - start).max(1) as f64;
                score += 0.01 * best_sentence * (1.0 - best_pos as f64 / len);
                candidates.push((score, start, end - start));
            }
            candidates.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
            let mut taken: Vec<(usize, usize)> = Vec::new();
            for (score, start, len) in candidates {
                if taken.len() == Self::PER_DOC {
                    break;
                }
                let overlaps = taken.iter().any(|&(s, l)| start < s + l && s < start + len);
                if overlaps {
                    continue;
                }
                taken.push((start, len));
                best.push(Passage {
                    doc: DocId(doc_idx as u32),
                    first_sentence: start,
                    sentences: sents[start..start + len].to_vec(),
                    score,
                });
            }
        }
        best.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        best.truncate(k);
        best
    }

    /// Convenience: analyse a free-text query with the lexicon, then
    /// retrieve.
    pub fn retrieve_text(
        &self,
        index: &InvertedIndex,
        lexicon: &Lexicon,
        query: &str,
        k: usize,
    ) -> Vec<Passage> {
        self.retrieve(index, &index_terms(lexicon, query), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{DocFormat, Document};
    use proptest::prelude::*;

    fn setup(texts: &[&str], window: usize) -> (PassageRetriever, InvertedIndex, Lexicon) {
        let lx = Lexicon::english();
        let mut s = DocumentStore::new();
        for (i, t) in texts.iter().enumerate() {
            s.add(Document::new(&format!("doc{i}"), DocFormat::Plain, "", t));
        }
        let idx = InvertedIndex::build(&lx, &s);
        (PassageRetriever::build(&lx, &s, window), idx, lx)
    }

    #[test]
    fn finds_the_dense_window() {
        let long_doc = "Filler sentence one. Filler sentence two. Filler sentence three. \
            Filler sentence four. The temperature in Barcelona was 8 degrees. \
            January readings were mild. Filler sentence five. Filler sentence six. \
            Filler sentence seven. Filler sentence eight. Filler sentence nine.";
        let (pr, idx, lx) = setup(&[long_doc], 2);
        let passages = pr.retrieve_text(&idx, &lx, "temperature Barcelona January", 3);
        assert_eq!(passages.len(), 1);
        let text = passages[0].text();
        assert!(text.contains("Barcelona"));
        assert!(text.contains("January"));
        assert_eq!(passages[0].sentences.len(), 2);
    }

    #[test]
    fn window_never_exceeds_document() {
        let (pr, idx, lx) = setup(&["Only one sentence about weather."], 8);
        let passages = pr.retrieve_text(&idx, &lx, "weather", 3);
        assert_eq!(passages.len(), 1);
        assert_eq!(passages[0].sentences.len(), 1);
        assert_eq!(passages[0].first_sentence, 0);
    }

    #[test]
    fn one_passage_per_document_ranked_across_documents() {
        let (pr, idx, lx) = setup(
            &[
                "The weather is nice. Nothing else here.",
                "Barcelona weather today. The temperature in Barcelona is 8 degrees.",
                "Completely unrelated text about databases.",
            ],
            8,
        );
        let passages = pr.retrieve_text(&idx, &lx, "temperature Barcelona weather", 5);
        assert_eq!(passages.len(), 2);
        assert_eq!(passages[0].doc, DocId(1));
        assert!(passages[0].score > passages[1].score);
    }

    #[test]
    fn no_matching_terms_no_passages() {
        let (pr, idx, lx) = setup(&["The weather is nice."], 8);
        assert!(pr.retrieve_text(&idx, &lx, "volcano", 3).is_empty());
    }

    #[test]
    fn duplicate_query_terms_do_not_double_count() {
        let (pr, idx, _) = setup(&["weather here. weather there."], 1);
        let a = pr.retrieve(&idx, &["weather".to_owned()], 1);
        let b = pr.retrieve(&idx, &["weather".to_owned(), "weather".to_owned()], 1);
        assert_eq!(a[0].score, b[0].score);
    }

    #[test]
    fn default_window_is_paper_setting() {
        assert_eq!(PassageRetriever::DEFAULT_WINDOW, 8);
    }

    #[test]
    fn pruning_counters_report_untouched_documents() {
        let (pr, idx, _) = setup(
            &[
                "Barcelona weather today.",
                "Completely unrelated text about databases.",
                "More unrelated filler about engines.",
            ],
            4,
        );
        let query = pr.compile_query(&idx, [("barcelona", 1.0)]);
        let (passages, stats) = pr.retrieve_query(&query, 5);
        assert_eq!(passages.len(), 1);
        assert_eq!(stats.docs_total, 3);
        assert_eq!(stats.docs_candidate, 1);
        assert_eq!(stats.docs_pruned, 2);
        assert!(stats.windows_scored >= 1);
    }

    #[test]
    fn compiled_query_drops_unknown_terms_and_merges_duplicates() {
        let (pr, idx, _) = setup(&["weather here. weather there."], 1);
        let query = pr.compile_query(&idx, [("weather", 1.0), ("volcano", 9.0), ("weather", 3.0)]);
        assert_eq!(query.len(), 1);
        let empty = pr.compile_query(&idx, [("volcano", 1.0)]);
        assert!(empty.is_empty());
        assert!(pr.retrieve_query(&empty, 5).0.is_empty());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let lx = Lexicon::english();
        let mut s = DocumentStore::new();
        for i in 0..24 {
            s.add(Document::new(
                &format!("d{i}"),
                DocFormat::Plain,
                "",
                &format!("weather in city number {i}. temperature {i} degrees. filler text."),
            ));
        }
        let idx = InvertedIndex::build(&lx, &s);
        let seq = PassageRetriever::build(&lx, &s, 4);
        let par = PassageRetriever::build_parallel(&lx, &s, 4, 4);
        assert_eq!(seq.num_docs(), par.num_docs());
        assert_eq!(seq.num_terms(), par.num_terms());
        let terms = vec![("weather".to_owned(), 1.0), ("temperature".to_owned(), 2.0)];
        assert_eq!(
            seq.retrieve_weighted(&idx, &terms, 10),
            par.retrieve_weighted(&idx, &terms, 10)
        );
    }

    // --- exhaustive-equivalence property tests -------------------------

    /// Words the generated corpora and queries draw from. A mix of
    /// content words that survive the stop list plus a couple of terms
    /// that never appear in any corpus ("volcano"-style misses).
    const POOL: &[&str] = &[
        "temperature",
        "weather",
        "barcelona",
        "sky",
        "rain",
        "ticket",
        "airport",
        "sale",
        "volcano",
        "quasar",
    ];

    fn word() -> impl Strategy<Value = String> {
        (0usize..POOL.len()).prop_map(|i| POOL[i].to_owned())
    }

    fn corpus() -> impl Strategy<Value = Vec<String>> {
        // Up to 6 documents of up to 7 sentences of up to 5 pool words.
        proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(word(), 1..5), 0..7).prop_map(
                |sents| {
                    sents
                        .iter()
                        .map(|words| format!("{}.", words.join(" ")))
                        .collect::<Vec<_>>()
                        .join(" ")
                },
            ),
            0..6,
        )
    }

    /// `(word, weight)` pairs; the weight cycles over zero, the plain and
    /// boosted paper values, and a fractional one.
    fn weighted_term() -> impl Strategy<Value = (String, f64)> {
        const WEIGHTS: &[f64] = &[0.0, 1.0, 3.0, 0.75];
        (0usize..POOL.len() * WEIGHTS.len())
            .prop_map(|i| (POOL[i % POOL.len()].to_owned(), WEIGHTS[i / POOL.len()]))
    }

    fn weighted_query() -> impl Strategy<Value = Vec<(String, f64)>> {
        proptest::collection::vec(weighted_term(), 0..6)
    }

    fn equivalent(texts: &[String], terms: &[(String, f64)], window: usize, k: usize) {
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (pr, idx, _) = setup(&refs, window);
        let pruned = pr.retrieve_weighted(&idx, terms, k);
        let exhaustive = pr.retrieve_weighted_exhaustive(&idx, terms, k);
        assert_eq!(pruned, exhaustive, "window={window} k={k} terms={terms:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_pruned_matches_exhaustive(
            texts in corpus(),
            terms in weighted_query(),
            window in 1usize..5,
            k in 0usize..10,
        ) {
            equivalent(&texts, &terms, window, k);
        }

        #[test]
        fn prop_unweighted_retrieve_matches_exhaustive(
            texts in corpus(),
            words in proptest::collection::vec(word(), 0..5),
            window in 1usize..4,
        ) {
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (pr, idx, _) = setup(&refs, window);
            let weighted: Vec<(String, f64)> =
                words.iter().map(|w| (w.clone(), 1.0)).collect();
            prop_assert_eq!(
                pr.retrieve(&idx, &words, 5),
                pr.retrieve_weighted_exhaustive(&idx, &weighted, 5)
            );
        }
    }

    #[test]
    fn equivalence_edge_cases() {
        let texts: Vec<String> = vec![
            "temperature in barcelona. rain all day. sky clear.".to_owned(),
            "ticket sale at the airport.".to_owned(),
            String::new(),
        ];
        // Empty query.
        equivalent(&texts, &[], 3, 5);
        // k = 0 and k far beyond the number of matches.
        let q = vec![("temperature".to_owned(), 2.0), ("sale".to_owned(), 1.0)];
        equivalent(&texts, &q, 2, 0);
        equivalent(&texts, &q, 2, 100);
        // Only out-of-vocabulary terms.
        equivalent(&texts, &[("volcano".to_owned(), 5.0)], 2, 3);
        // Zero-weight terms must not promote windows.
        equivalent(&texts, &[("rain".to_owned(), 0.0)], 2, 3);
    }
}
