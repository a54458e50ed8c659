//! Shared reduction-cost counters.
//!
//! The paper's §7 dynamic-overhead claims (every source β-step becomes
//! exactly one closure application; every captured variable costs one
//! projection per call) are checked by counting rule firings. Each
//! language's reducer (`cccc_source::reduce`, `cccc_target::reduce`) fills
//! these counters as it steps, and its `evaluate_with_cost` returns them.
//! The two languages differ only in what the application rule and the
//! function-value allocation proxy are *called*, so [`Cost`] is generic
//! over a [`CostLabels`] marker supplying the display labels, and the
//! arithmetic, totals, trace payloads and formatting live here.

use crate::trace;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Add;

/// Display labels distinguishing the CC and CC-CC instantiations of
/// [`Cost`]. Implemented by zero-sized marker types.
pub trait CostLabels {
    /// Label for the application rule: `β` in CC, `clo` (closure
    /// application) in CC-CC.
    const APPLICATION: &'static str;
    /// Label for the function-value allocation proxy: `functions` in CC,
    /// `closures` in CC-CC.
    const FUNCTIONS: &'static str;
    /// Name of the trace event [`Cost::record_trace`] emits.
    const TRACE_EVENT: &'static str;
}

/// Counters for the reduction rules of one language. The field names are
/// language-neutral ([`Cost::applications`] counts β-steps in CC and
/// closure applications in CC-CC); the [`CostLabels`] parameter only
/// affects rendering and the trace event name.
pub struct Cost<L: CostLabels> {
    /// Application steps (β in CC; closure application in CC-CC).
    pub applications: usize,
    /// ζ-steps: `let x = e in e1 ⊲ e1[e/x]` (environment projections
    /// after closure conversion).
    pub zeta: usize,
    /// δ-steps: unfolding a defined variable.
    pub delta: usize,
    /// π-steps: `fst`/`snd` of a pair (environment dereferences).
    pub projection: usize,
    /// `if` on a literal.
    pub conditional: usize,
    /// Pair values built while producing the result (an allocation
    /// proxy; environment tuples in CC-CC).
    pub pairs_built: usize,
    /// Function values encountered as evaluation results (λ-values in
    /// CC, closures in CC-CC — a heap-allocation proxy).
    pub functions_built: usize,
    marker: PhantomData<L>,
}

// Manual impls: deriving would demand the marker type itself be
// Clone/Copy/Eq/…, which is noise for a phantom parameter.
impl<L: CostLabels> Clone for Cost<L> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<L: CostLabels> Copy for Cost<L> {}
impl<L: CostLabels> Default for Cost<L> {
    fn default() -> Self {
        Cost {
            applications: 0,
            zeta: 0,
            delta: 0,
            projection: 0,
            conditional: 0,
            pairs_built: 0,
            functions_built: 0,
            marker: PhantomData,
        }
    }
}
impl<L: CostLabels> PartialEq for Cost<L> {
    fn eq(&self, other: &Self) -> bool {
        self.applications == other.applications
            && self.zeta == other.zeta
            && self.delta == other.delta
            && self.projection == other.projection
            && self.conditional == other.conditional
            && self.pairs_built == other.pairs_built
            && self.functions_built == other.functions_built
    }
}
impl<L: CostLabels> Eq for Cost<L> {}
impl<L: CostLabels> fmt::Debug for Cost<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cost")
            .field("applications", &self.applications)
            .field("zeta", &self.zeta)
            .field("delta", &self.delta)
            .field("projection", &self.projection)
            .field("conditional", &self.conditional)
            .field("pairs_built", &self.pairs_built)
            .field("functions_built", &self.functions_built)
            .finish()
    }
}

impl<L: CostLabels> Cost<L> {
    /// Total number of reduction steps of any kind (allocation proxies
    /// excluded).
    pub fn total_steps(&self) -> usize {
        self.applications + self.zeta + self.delta + self.projection + self.conditional
    }

    /// The counters as trace payloads (stable language-neutral keys).
    pub fn as_counters(&self) -> [(&'static str, u64); 8] {
        [
            ("applications", self.applications as u64),
            ("zeta", self.zeta as u64),
            ("delta", self.delta as u64),
            ("projection", self.projection as u64),
            ("conditional", self.conditional as u64),
            ("pairs_built", self.pairs_built as u64),
            ("functions_built", self.functions_built as u64),
            ("total_steps", self.total_steps() as u64),
        ]
    }

    /// Emits the counters as a [`trace`] event named
    /// [`CostLabels::TRACE_EVENT`] (a no-op — without even building the
    /// payload — when no sink is installed on this thread). This is how
    /// §7's dynamic-overhead claims become observable per build: any
    /// traced run of the instrumented evaluators lands its β / closure-app
    /// / ζ / π counts in the build trace.
    pub fn record_trace(&self) {
        if trace::active() {
            trace::event(L::TRACE_EVENT, &self.as_counters());
        }
    }
}

impl<L: CostLabels> Add for Cost<L> {
    type Output = Cost<L>;
    fn add(self, other: Cost<L>) -> Cost<L> {
        Cost {
            applications: self.applications + other.applications,
            zeta: self.zeta + other.zeta,
            delta: self.delta + other.delta,
            projection: self.projection + other.projection,
            conditional: self.conditional + other.conditional,
            pairs_built: self.pairs_built + other.pairs_built,
            functions_built: self.functions_built + other.functions_built,
            marker: PhantomData,
        }
    }
}

impl<L: CostLabels> fmt::Display for Cost<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={} ζ={} δ={} π={} if={} pairs={} {}={} (total {})",
            L::APPLICATION,
            self.applications,
            self.zeta,
            self.delta,
            self.projection,
            self.conditional,
            self.pairs_built,
            L::FUNCTIONS,
            self.functions_built,
            self.total_steps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestLabels;
    impl CostLabels for TestLabels {
        const APPLICATION: &'static str = "app";
        const FUNCTIONS: &'static str = "fns";
        const TRACE_EVENT: &'static str = "cost.test";
    }

    #[test]
    fn totals_addition_and_display_use_the_labels() {
        let a: Cost<TestLabels> =
            Cost { applications: 2, zeta: 1, pairs_built: 4, ..Cost::default() };
        let sum = a + a;
        assert_eq!(sum.applications, 4);
        assert_eq!(sum.total_steps(), 6);
        let rendered = sum.to_string();
        assert!(rendered.contains("app=4"));
        assert!(rendered.contains("fns=0"));
        assert_eq!(a, a.to_owned());
        assert!(format!("{a:?}").contains("applications"));
    }

    #[test]
    fn record_trace_emits_the_payload_under_a_sink() {
        let cost: Cost<TestLabels> = Cost { applications: 3, projection: 2, ..Cost::default() };
        let ((), built) = trace::capture(|| cost.record_trace());
        assert_eq!(built.events.len(), 1);
        let event = &built.events[0];
        assert_eq!(event.name, "cost.test");
        assert!(event.counters.contains(&("applications", 3)));
        assert!(event.counters.contains(&("total_steps", 5)));
        // No sink: nothing is recorded (and nothing allocates).
        cost.record_trace();
    }
}
