//! # dwqa-obs — structured observability for the QA ⇄ DW pipeline
//!
//! One substrate for the three questions the ad-hoc counters couldn't
//! answer:
//!
//! * **Where did this one question spend its time?** Hierarchical
//!   spans ([`span!`]) opened per pipeline stage, with typed fields and
//!   point-in-time events ([`event!`]), collected into a [`Trace`] per
//!   question.
//! * **What happened recently?** A bounded [`FlightRecorder`] ring
//!   buffer keeps the last N completed traces, dumpable as JSON lines
//!   or an indented tree.
//! * **What happened overall?** A [`MetricsRegistry`] of named
//!   counters, gauges and power-of-two-µs histograms, read as one
//!   sorted [`MetricsRegistry::snapshot`] by every reporter.
//!
//! The crate has **zero dependencies** (std only). Instrumented crates
//! never thread handles: a worker installs its engine's registry and
//! tracer into thread-local storage via [`observe`] for the duration
//! of one question, and every [`span!`]/[`event!`]/[`counter_add`]
//! below it resolves through that context — or no-ops when none is
//! installed.
//!
//! Building with the `off` feature sets [`COMPILED`] to `false`: every
//! tracing entry point short-circuits on a `const`, so the optimizer
//! deletes the instrumentation entirely (metrics registries still work
//! when used directly, but the thread-local trace path is gone).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod context;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod trace;

pub use context::{
    counter_add, enter_span, histogram_record_us, observe, record_event, root_field,
    tracing_active, ObserveGuard, SpanGuard,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, BUCKETS};
pub use recorder::{FlightRecorder, Tracer, DEFAULT_TRACE_CAPACITY};
pub use trace::{EventRecord, FieldValue, SpanRecord, Trace};

/// `false` when the crate was built with the `off` feature: every
/// tracing entry point checks this `const` first, so disabled builds
/// compile the instrumentation away entirely.
pub const COMPILED: bool = !cfg!(feature = "off");

/// Opens a span that closes when the returned guard drops.
///
/// ```
/// # use dwqa_obs::span;
/// let docs_candidate = 9u64;
/// let _span = span!("retrieve", docs_candidate); // field name = variable name
/// let _span = span!("score", windows = 40u64); // explicit field name
/// let _span = span!("analyze"); // no fields
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::enter_span($name)
    };
    ($name:expr, $($field:tt)*) => {{
        let guard = $crate::enter_span($name);
        $crate::record_span_fields!(guard, $($field)*);
        guard
    }};
}

/// Records a point-in-time event on the innermost open span.
///
/// ```
/// # use dwqa_obs::event;
/// let attempt = 2u64;
/// event!("retry", attempt, backoff_us = 1500u64);
/// event!("breaker.open");
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::record_event($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($field:tt)*) => {
        $crate::record_event($name, $crate::event_fields!($($field)*))
    };
}

/// Internal helper for [`span!`]: records each `key = value` or bare
/// `ident` field on an already-opened guard.
#[doc(hidden)]
#[macro_export]
macro_rules! record_span_fields {
    ($guard:ident, $key:ident = $value:expr) => {
        $guard.record(stringify!($key), $value);
    };
    ($guard:ident, $key:ident = $value:expr, $($rest:tt)*) => {
        $guard.record(stringify!($key), $value);
        $crate::record_span_fields!($guard, $($rest)*);
    };
    ($guard:ident, $key:ident) => {
        $guard.record(stringify!($key), $key);
    };
    ($guard:ident, $key:ident, $($rest:tt)*) => {
        $guard.record(stringify!($key), $key);
        $crate::record_span_fields!($guard, $($rest)*);
    };
}

/// Internal helper for [`event!`]: builds the field vector.
#[doc(hidden)]
#[macro_export]
macro_rules! event_fields {
    ($key:ident = $value:expr) => {
        ::std::vec![(stringify!($key), $crate::FieldValue::from($value))]
    };
    ($key:ident) => {
        ::std::vec![(stringify!($key), $crate::FieldValue::from($key))]
    };
    ($key:ident = $value:expr, $($rest:tt)*) => {{
        let mut fields = $crate::event_fields!($($rest)*);
        fields.insert(0, (stringify!($key), $crate::FieldValue::from($value)));
        fields
    }};
    ($key:ident, $($rest:tt)*) => {{
        let mut fields = $crate::event_fields!($($rest)*);
        fields.insert(0, (stringify!($key), $crate::FieldValue::from($key)));
        fields
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(feature = "off", ignore = "tracing compiled out")]
    fn span_macro_records_shorthand_and_named_fields() {
        let tracer = Tracer::new(4);
        tracer.set_enabled(true);
        {
            let _obs = observe(None, Some(&tracer), "question", "q");
            let docs_candidate = 9u64;
            let _s = span!("retrieve", docs_candidate, windows = 40u64);
            event!("retry", attempt = 1u64, backoff_us = 500u64);
            event!("breaker.open");
        }
        let trace = tracer.recorder().last().unwrap_or_default();
        let retrieve = match trace.find("retrieve") {
            Some(s) => s.clone(),
            None => panic!("retrieve span missing"),
        };
        assert_eq!(
            retrieve.field("docs_candidate").and_then(|v| v.as_u64()),
            Some(9)
        );
        assert_eq!(retrieve.field("windows").and_then(|v| v.as_u64()), Some(40));
        assert_eq!(retrieve.events.len(), 2);
        assert_eq!(retrieve.events[0].name, "retry");
        assert_eq!(
            retrieve.events[0].fields,
            vec![
                ("attempt", FieldValue::U64(1)),
                ("backoff_us", FieldValue::U64(500)),
            ]
        );
        assert_eq!(retrieve.events[1].name, "breaker.open");
    }

    #[test]
    fn compiled_flag_matches_feature() {
        assert_eq!(COMPILED, !cfg!(feature = "off"));
    }
}
