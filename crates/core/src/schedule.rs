//! The seven mechanisms of the paper as two controllers.
//!
//! **Budget division** (§5). Theorem 5.1 lets a w-event LDP mechanism
//! split ε across the timestamps of every sliding window: if each
//! timestamp's rounds are ε_t-LDP and every window has `Σ ε_t ≤ ε`, the
//! composition is w-event ε-LDP. Every user reports at every timestamp
//! with a *fraction* of ε, which is why this family suffers in the local
//! model: FO variance grows as `O((e^ε − 1)^{-2})` when the per-round
//! budget shrinks (§6.1). A [`WindowBudget`] re-checks the window sum as
//! the mechanism runs.
//!
//! **Population division** (§6). FO variance is only `O(n^{-1})` in the
//! reporting population, so splitting the *users* across a window —
//! each reports at most once per window, with the full ε — dominates
//! splitting the budget (Theorem 6.1) and cuts communication about
//! w-fold. LSP is accounted here too: all users report once per window.
//!
//! Theorem 6.2's invariant for population division — each user reports
//! at most once per window, always through an ε-LDP oracle — is not kept
//! here: these controllers only choose group sizes, and keep no ledger.
//! The collector guards it: every collector refuses a request larger than
//! its pool of users fresh in the window with
//! [`crate::CoreError::PoolExhausted`], and under
//! [`crate::protocol::ClientCollector`] every device's own ledger
//! ([`crate::protocol::DeviceTable`]) also refuses to over-spend.
//!
//! The [`Fixed`] controller runs one request on a fixed schedule:
//!
//! * LBU (§5.2.1) — all users at ε/w every timestamp;
//! * LSP (§5.2.2) — all users at ε every w-th timestamp, approximating
//!   with that release in between (a `Fresh(N)` request, so the
//!   collector's freshness accounting checks the spacing);
//! * LPU (§6.1) — `⌊N/w⌋` fresh users at ε every timestamp.
//!
//! The [`Adaptive`] controller runs Algorithms 1–4. Every timestamp a
//! dissimilarity round M₁ (all users at `ε/(2w)`, or `⌊N/(2w)⌋` fresh
//! users at ε) gives the Theorem 5.2 estimate `dis` of the drift since
//! the last release; a publication round M₂ runs only if `dis` beats the
//! potential publication error `err` of the provisional resource:
//!
//! * distribution (LBD, Alg. 1; LPD, Alg. 3) provisions half of the
//!   publication resource the active window has left, so publications
//!   decay as `ε/4, ε/8, …` (or `N/4, N/8, …` users) — quick to react,
//!   but starving late publications in change-heavy windows;
//! * absorption (LBA, Alg. 2; LPA, Alg. 4) lays the resource out in one
//!   slot per timestamp; a publication absorbs the slots skipped since
//!   the last one (at most `w`) and nullifies as many following
//!   timestamps minus one to pay them back.
//!
//! LPD and LPA are LBD and LBA with `ε_{t,2} → |U_{t,2}|` (§6.2): the
//! [`Division`] holds every difference between the pairs.

use crate::collector::{ReportScope, RoundCollector};
use crate::config::{MechanismConfig, VarianceModel};
use crate::dissimilarity::{estimate_dissimilarity, expected_round_mse};
use crate::error::CoreError;
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};
use ldp_fo::variance::PqPair;
use ldp_stream::{RingWindow, WindowBudget};

/// What budget division and population division do differently. A
/// publication *resource* is a budget under `Budget` and a user count
/// under `Population`, held as an integral `f64` (exact below 2^53).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Division {
    /// All users report at every timestamp with a fraction of ε.
    Budget,
    /// Each user reports at most once per window, with the full ε.
    Population,
}

impl Division {
    fn of(kind: MechanismKind) -> Division {
        if kind.is_population_division() {
            Division::Population
        } else {
            Division::Budget
        }
    }

    /// Only budget division keeps a window ledger.
    fn ledger(self, config: &MechanismConfig) -> Option<WindowBudget> {
        (self == Division::Budget).then(|| WindowBudget::new(config.epsilon, config.w))
    }

    /// The M₁ round: all users at `share·ε/w`, or `⌊⌊N·share⌋/w⌋` fresh
    /// users at ε.
    fn dissimilarity_round(self, config: &MechanismConfig) -> (ReportScope, f64) {
        match self {
            Division::Budget => (ReportScope::All, config.dissimilarity_budget_per_step()),
            Division::Population => (
                ReportScope::Fresh(config.dissimilarity_group_size()),
                config.epsilon,
            ),
        }
    }

    /// The window's publication resource: `(1−share)·ε`, or
    /// `⌊N·(1−share)⌋` users.
    fn pool(self, config: &MechanismConfig) -> f64 {
        match self {
            Division::Budget => config.publication_budget_pool(),
            Division::Population => config.publication_pool_size() as f64,
        }
    }

    /// Users come whole.
    fn whole(self, resource: f64) -> f64 {
        match self {
            Division::Budget => resource,
            Division::Population => resource.floor(),
        }
    }

    /// The round a publication with `resource` asks for.
    fn grant(self, config: &MechanismConfig, resource: f64) -> (ReportScope, f64) {
        match self {
            Division::Budget => (ReportScope::All, resource),
            Division::Population => (ReportScope::Fresh(resource as u64), config.epsilon),
        }
    }

    /// The potential publication error `err`: `V(ε_{t,2}, N)` (§5.3.2)
    /// or `V(ε, |U_{t,2}|)` (§6.2.1), at the data-independent `f = 1/d`
    /// (Eq. 6); infinite without resource.
    pub(crate) fn err(self, config: &MechanismConfig, resource: f64) -> f64 {
        if resource <= 0.0 {
            return f64::INFINITY;
        }
        let (scope, epsilon) = self.grant(config, resource);
        let reporters = match scope {
            ReportScope::All => config.population,
            ReportScope::Fresh(k) => k,
        };
        let pq = PqPair::of(config.fo, epsilon, config.domain_size);
        expected_round_mse(
            VarianceModel::Approximate,
            pq,
            reporters,
            config.domain_size,
            None,
        )
    }

    /// Whether `resource` may publish: any budget, or at least `u_min`
    /// users (Alg. 3 line 10: a tiny group's estimate is all noise).
    fn suffices(self, config: &MechanismConfig, resource: f64) -> bool {
        match self {
            Division::Budget => resource > 0.0,
            Division::Population => resource >= config.u_min as f64,
        }
    }
}

/// LBU, LSP and LPU: one request on a fixed schedule.
#[derive(Debug)]
pub(crate) struct Fixed {
    kind: MechanismKind,
    config: MechanismConfig,
    /// The round of every publishing timestamp.
    round: (ReportScope, f64),
    /// Publish at every `every`-th timestamp, approximate in between.
    every: u64,
    ledger: Option<WindowBudget>,
    t: u64,
    publications: u64,
    last: Vec<f64>,
}

impl Fixed {
    /// Build `kind` (LBU, LSP or LPU) for `config`. LPU requires `N ≥ w`
    /// so every group is non-empty.
    pub(crate) fn new(kind: MechanismKind, config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let (n, w) = (config.population, config.w as u64);
        let (round, every) = match kind {
            MechanismKind::Lbu => ((ReportScope::All, config.epsilon / config.w as f64), 1),
            MechanismKind::Lsp => ((ReportScope::Fresh(n), config.epsilon), w),
            MechanismKind::Lpu if n < w => {
                return Err(CoreError::PopulationTooSmall {
                    population: n,
                    required: w,
                })
            }
            MechanismKind::Lpu => ((ReportScope::Fresh(n / w), config.epsilon), 1),
            adaptive => unreachable!("{adaptive} is adaptive"),
        };
        Ok(Fixed {
            kind,
            ledger: Division::of(kind).ledger(&config),
            last: vec![0.0; config.domain_size],
            config,
            round,
            every,
            t: 0,
            publications: 0,
        })
    }
}

impl StreamMechanism for Fixed {
    fn kind(&self) -> MechanismKind {
        self.kind
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        let t = self.t;
        self.t += 1;
        if !t.is_multiple_of(self.every) {
            return Ok(Release::approximated(t, self.last.clone()));
        }
        let (scope, epsilon) = self.round;
        let round = collector.collect(scope, epsilon)?;
        if let Some(ledger) = &mut self.ledger {
            ledger.spend(epsilon);
        }
        self.publications += 1;
        self.last.clone_from(&round.frequencies);
        Ok(Release::published(
            t,
            round.frequencies,
            epsilon,
            round.reporters,
        ))
    }

    fn publications(&self) -> u64 {
        self.publications
    }
}

/// How an adaptive mechanism provisions its publication resource.
#[derive(Debug)]
enum Rule {
    /// Half of the pool minus what the last `w − 1` timestamps published
    /// (Alg. 1/3 line 7); the window holds those publications.
    Distribution(RingWindow<f64>),
    /// One slot `⌊pool/w⌋` per timestamp. `l` is the 1-based timestamp
    /// of the last publication (0: the virtual origin) and `slots` the
    /// slots it absorbed; the `slots − 1` timestamps after `l` are
    /// nullified, and the following ones are absorbable, at most `w`.
    Absorption { l: u64, slots: u64 },
}

/// LBD, LBA, LPD and LPA (Algorithms 1–4).
#[derive(Debug)]
pub(crate) struct Adaptive {
    kind: MechanismKind,
    config: MechanismConfig,
    division: Division,
    rule: Rule,
    ledger: Option<WindowBudget>,
    t: u64,
    publications: u64,
    last: Vec<f64>,
    #[cfg(test)]
    last_decision: Option<Decision>,
}

impl Adaptive {
    /// Build `kind` (LBD, LBA, LPD or LPA) for `config`. Population
    /// division requires a user per dissimilarity group and per slot
    /// (`N ≥ 2w` at the paper's split).
    pub(crate) fn new(kind: MechanismKind, config: MechanismConfig) -> Result<Self, CoreError> {
        let division = Division::of(kind);
        match division {
            Division::Budget => config.validate()?,
            Division::Population => config.validate_population_division()?,
        }
        let rule = if matches!(kind, MechanismKind::Lbd | MechanismKind::Lpd) {
            Rule::Distribution(RingWindow::new(config.w.max(2) - 1))
        } else {
            Rule::Absorption { l: 0, slots: 0 }
        };
        Ok(Adaptive {
            kind,
            division,
            rule,
            ledger: division.ledger(&config),
            last: vec![0.0; config.domain_size],
            config,
            t: 0,
            publications: 0,
            #[cfg(test)]
            last_decision: None,
        })
    }
}

impl StreamMechanism for Adaptive {
    fn kind(&self) -> MechanismKind {
        self.kind
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        let (config, division) = (&self.config, self.division);
        let t = self.t;
        self.t += 1;

        // M_{t,1} runs at every timestamp, nullified or not: the
        // dissimilarity resource is committed uniformly (Alg. 2 line 3).
        let (scope_1, eps_1) = division.dissimilarity_round(config);
        let round = collector.collect(scope_1, eps_1)?;
        let mse = expected_round_mse(
            config.variance,
            PqPair::of(config.fo, eps_1, config.domain_size),
            round.reporters,
            config.domain_size,
            Some(&round.frequencies),
        );
        let dis = estimate_dissimilarity(&round.frequencies, &self.last, mse);

        // M_{t,2}: the provisional resource.
        let (provisional, absorbed) = match &self.rule {
            Rule::Distribution(window) => {
                let left = (division.pool(config) - window.sum()).max(0.0);
                (division.whole(left / 2.0), 0)
            }
            Rule::Absorption { l, slots } => {
                let since = self.t - l;
                if since < *slots {
                    if let Some(ledger) = &mut self.ledger {
                        ledger.spend(eps_1);
                    }
                    return Ok(Release::nullified(t, self.last.clone()));
                }
                let absorbed = (since + 1 - slots).min(config.w as u64);
                let slot = division.whole(division.pool(config) / config.w as f64);
                (slot * absorbed as f64, absorbed)
            }
        };
        let err = division.err(config, provisional);
        let publish = dis > err && division.suffices(config, provisional);

        let (release, spent) = if publish {
            let (scope, epsilon) = division.grant(config, provisional);
            let round = collector.collect(scope, epsilon)?;
            self.last.clone_from(&round.frequencies);
            self.publications += 1;
            let release = Release::published(t, round.frequencies, epsilon, round.reporters);
            (release, provisional)
        } else {
            (Release::approximated(t, self.last.clone()), 0.0)
        };
        match &mut self.rule {
            // At w = 1 the window of the last w − 1 steps stays empty.
            Rule::Distribution(window) if config.w > 1 => {
                window.push(spent);
            }
            Rule::Absorption { l, slots } if publish => (*l, *slots) = (self.t, absorbed),
            _ => {}
        }
        if let Some(ledger) = &mut self.ledger {
            ledger.spend(eps_1 + spent);
        }
        #[cfg(test)]
        {
            self.last_decision = Some(Decision {
                dis,
                err,
                provisional,
                published: publish,
            });
        }
        Ok(release)
    }

    fn publications(&self) -> u64 {
        self.publications
    }
}

/// The inputs and outcome of one adaptive publish-or-approximate choice.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Decision {
    /// Estimated dissimilarity (Theorem 5.2); may be negative.
    pub dis: f64,
    /// Potential publication error `V`.
    pub err: f64,
    /// Provisional publication resource (budget, or users).
    pub provisional: f64,
    /// Whether the mechanism published.
    pub published: bool,
}

#[cfg(test)]
impl Fixed {
    pub(crate) fn ledger(&self) -> &WindowBudget {
        self.ledger.as_ref().expect("budget division")
    }
}

#[cfg(test)]
impl Adaptive {
    pub(crate) fn ledger(&self) -> &WindowBudget {
        self.ledger.as_ref().expect("budget division")
    }

    /// The most recent step's decision, if any non-nullified step ran.
    pub(crate) fn last_decision(&self) -> Option<Decision> {
        self.last_decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CollectorStats, RoundEstimate};
    use crate::release::ReleaseKind;

    /// One step of a script: the estimate every round returns, and the
    /// reporters it claims (`None`: `N` for `All`, `k` for `Fresh(k)`).
    type Scripted = (Vec<f64>, Option<u64>);

    /// A collector without users or noise: every round at step `t`
    /// returns `script[t]` and logs the request.
    struct ScriptedCollector {
        script: Vec<Scripted>,
        population: u64,
        t: Option<usize>,
        /// One entry per step: its requests, then its release.
        trace: Vec<String>,
    }

    impl RoundCollector for ScriptedCollector {
        fn population(&self) -> u64 {
            self.population
        }

        fn domain_size(&self) -> usize {
            self.script[0].0.len()
        }

        fn begin_step(&mut self) -> Result<(), CoreError> {
            self.t = Some(self.t.map_or(0, |t| t + 1));
            self.trace.push(String::new());
            Ok(())
        }

        fn collect(
            &mut self,
            scope: ReportScope,
            epsilon: f64,
        ) -> Result<RoundEstimate, CoreError> {
            let t = self.t.expect("collect before begin_step");
            let (token, reporters) = match scope {
                ReportScope::All => (format!("A{epsilon:?} "), self.population),
                ReportScope::Fresh(k) => (format!("F{k}@{epsilon:?} "), k),
            };
            self.trace[t].push_str(&token);
            let (frequencies, claimed) = self.script[t].clone();
            Ok(RoundEstimate {
                frequencies,
                reporters: claimed.unwrap_or(reporters),
                epsilon,
            })
        }

        fn stats(&self) -> CollectorStats {
            CollectorStats::default()
        }
    }

    /// Run `kind` over `script`; one `"<requests> =<P|A|N>"` per step.
    fn trace(kind: MechanismKind, config: &MechanismConfig, script: Vec<Scripted>) -> String {
        let steps = script.len();
        let mut collector = ScriptedCollector {
            script,
            population: config.population,
            t: None,
            trace: Vec::new(),
        };
        let mut mechanism = kind.build(config).unwrap();
        for t in 0..steps {
            collector.begin_step().unwrap();
            let release = mechanism.step(&mut collector).unwrap();
            assert_eq!(release.t, t as u64);
            collector.trace[t].push_str(match release.kind {
                ReleaseKind::Published { .. } => "=P",
                ReleaseKind::Approximated => "=A",
                ReleaseKind::Nullified => "=N",
            });
        }
        collector.trace.join("; ")
    }

    /// `V(ε, n)` as the mechanisms price it for GRR over d = 2.
    fn v(epsilon: f64, n: u64) -> f64 {
        expected_round_mse(
            VarianceModel::Approximate,
            PqPair::of(ldp_fo::FoKind::Grr, epsilon, 2),
            n,
            2,
            None,
        )
    }

    /// A first step whose M₁ round (at `eps_1`) yields a Theorem 5.2
    /// dissimilarity against the zero release equal to `err` bit for bit.
    /// The claimed reporter count shrinks the debiasing term `mse` until
    /// `err + mse` rounds back to `err` when `mse` is taken off.
    fn tie(eps_1: f64, reporters: u64, err: f64) -> Scripted {
        for n in (1..=64).map(|k| k * reporters) {
            let mse = v(eps_1, n);
            let x0 = (2.0 * (err + mse)).sqrt();
            let mut x = x0 - 8.0 * f64::EPSILON * x0;
            for _ in 0..16 {
                let gap = 2.0 * (err + mse) - x * x;
                let z = if gap > 0.0 { gap.sqrt() } else { 0.0 };
                let estimate = vec![x, z];
                if estimate_dissimilarity(&estimate, &[0.0, 0.0], mse) == err {
                    return (estimate, Some(n));
                }
                x = x.next_up();
            }
        }
        panic!("no estimate ties dis with err = {err}");
    }

    /// Every mechanism's requests and releases over hand-picked scripts
    /// (ε = 1, d = 2, N = 1000, GRR): a first-step publication, a
    /// `dis == err` tie (which approximates), a four-slot absorption
    /// whose nullified stretch crosses a window boundary, decaying
    /// population groups that fall below `u_min`, and w = 1.
    #[test]
    fn request_traces_are_pinned() {
        let (on, off, zero) = (vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]);
        let steps = |estimates: Vec<&Vec<f64>>| -> Vec<Scripted> {
            estimates.into_iter().map(|e| (e.clone(), None)).collect()
        };
        let swing = |n: usize| {
            steps(
                (0..n)
                    .map(|t| if t % 2 == 0 { &on } else { &off })
                    .collect(),
            )
        };
        let config = MechanismConfig::new(1.0, 4, 2, 1000);
        let mut got = Vec::new();
        for kind in MechanismKind::ALL {
            // The first step's M₁ round and provisional M₂ round at w = 4:
            // ε/8 and ε/4 over N users, or ⌊N/8⌋ and ⌊N/4⌋ users at ε.
            let tied = if kind.is_population_division() {
                tie(1.0, 125, v(1.0, 250))
            } else {
                tie(0.125, 1000, v(0.25, 1000))
            };
            let mut tied = vec![tied];
            tied.extend(swing(5));
            let mut absorbing = steps(vec![&zero; 5]);
            absorbing.extend(swing(6));
            let scripts = [
                ("first", config.clone(), steps(vec![&on; 6])),
                ("tie", config.clone(), tied),
                ("nullified", config.clone(), absorbing),
                ("u_min", config.clone().with_u_min(100), swing(8)),
                ("w1", MechanismConfig::new(1.0, 1, 2, 1000), swing(5)),
            ];
            for (name, config, script) in scripts {
                got.push(format!("{kind} {name}: {}", trace(kind, &config, script)));
            }
        }
        let want = [
            "lbu first: A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P",
            "lbu tie: A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P",
            "lbu nullified: A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P",
            "lbu u_min: A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P; A0.25 =P",
            "lbu w1: A1.0 =P; A1.0 =P; A1.0 =P; A1.0 =P; A1.0 =P",
            "lsp first: F1000@1.0 =P; =A; =A; =A; F1000@1.0 =P; =A",
            "lsp tie: F1000@1.0 =P; =A; =A; =A; F1000@1.0 =P; =A",
            "lsp nullified: F1000@1.0 =P; =A; =A; =A; F1000@1.0 =P; =A; =A; =A; F1000@1.0 =P; =A; =A",
            "lsp u_min: F1000@1.0 =P; =A; =A; =A; F1000@1.0 =P; =A; =A; =A",
            "lsp w1: F1000@1.0 =P; F1000@1.0 =P; F1000@1.0 =P; F1000@1.0 =P; F1000@1.0 =P",
            "lbd first: A0.125 A0.25 =P; A0.125 =A; A0.125 =A; A0.125 =A; A0.125 =A; A0.125 =A",
            "lbd tie: A0.125 =A; A0.125 A0.25 =P; A0.125 A0.125 =P; A0.125 A0.0625 =P; A0.125 =A; A0.125 =A",
            "lbd nullified: A0.125 =A; A0.125 =A; A0.125 =A; A0.125 =A; A0.125 =A; A0.125 A0.25 =P; A0.125 A0.125 =P; A0.125 A0.0625 =P; A0.125 =A; A0.125 =A; A0.125 A0.21875 =P",
            "lbd u_min: A0.125 A0.25 =P; A0.125 A0.125 =P; A0.125 A0.0625 =P; A0.125 =A; A0.125 =A; A0.125 A0.21875 =P; A0.125 A0.140625 =P; A0.125 A0.0703125 =P",
            "lbd w1: A0.5 A0.25 =P; A0.5 A0.25 =P; A0.5 A0.25 =P; A0.5 A0.25 =P; A0.5 A0.25 =P",
            "lba first: A0.125 A0.25 =P; A0.125 =N; A0.125 =A; A0.125 =A; A0.125 =A; A0.125 =A",
            "lba tie: A0.125 =A; A0.125 A0.375 =P; A0.125 =N; A0.125 =N; A0.125 A0.125 =P; A0.125 A0.125 =P",
            "lba nullified: A0.125 =A; A0.125 =A; A0.125 =A; A0.125 =A; A0.125 =A; A0.125 A0.5 =P; A0.125 =N; A0.125 =N; A0.125 =N; A0.125 =A; A0.125 A0.25 =P",
            "lba u_min: A0.125 A0.25 =P; A0.125 =N; A0.125 =A; A0.125 A0.25 =P; A0.125 =N; A0.125 =A; A0.125 A0.25 =P; A0.125 =N",
            "lba w1: A0.5 A0.5 =P; A0.5 A0.5 =P; A0.5 A0.5 =P; A0.5 A0.5 =P; A0.5 A0.5 =P",
            "lpu first: F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P",
            "lpu tie: F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P",
            "lpu nullified: F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P",
            "lpu u_min: F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P; F250@1.0 =P",
            "lpu w1: F1000@1.0 =P; F1000@1.0 =P; F1000@1.0 =P; F1000@1.0 =P; F1000@1.0 =P",
            "lpd first: F125@1.0 F250@1.0 =P; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A",
            "lpd tie: F125@1.0 =A; F125@1.0 F250@1.0 =P; F125@1.0 F125@1.0 =P; F125@1.0 F62@1.0 =P; F125@1.0 F31@1.0 =P; F125@1.0 F141@1.0 =P",
            "lpd nullified: F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 F250@1.0 =P; F125@1.0 F125@1.0 =P; F125@1.0 F62@1.0 =P; F125@1.0 F31@1.0 =P; F125@1.0 F141@1.0 =P; F125@1.0 F133@1.0 =P",
            "lpd u_min: F125@1.0 F250@1.0 =P; F125@1.0 F125@1.0 =P; F125@1.0 =A; F125@1.0 =A; F125@1.0 F187@1.0 =P; F125@1.0 F156@1.0 =P; F125@1.0 =A; F125@1.0 =A",
            "lpd w1: F500@1.0 F250@1.0 =P; F500@1.0 F250@1.0 =P; F500@1.0 F250@1.0 =P; F500@1.0 F250@1.0 =P; F500@1.0 F250@1.0 =P",
            "lpa first: F125@1.0 F250@1.0 =P; F125@1.0 =N; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A",
            "lpa tie: F125@1.0 =A; F125@1.0 F375@1.0 =P; F125@1.0 =N; F125@1.0 =N; F125@1.0 F125@1.0 =P; F125@1.0 F125@1.0 =P",
            "lpa nullified: F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 =A; F125@1.0 F500@1.0 =P; F125@1.0 =N; F125@1.0 =N; F125@1.0 =N; F125@1.0 =A; F125@1.0 F250@1.0 =P",
            "lpa u_min: F125@1.0 F250@1.0 =P; F125@1.0 =N; F125@1.0 =A; F125@1.0 F250@1.0 =P; F125@1.0 =N; F125@1.0 =A; F125@1.0 F250@1.0 =P; F125@1.0 =N",
            "lpa w1: F500@1.0 F500@1.0 =P; F500@1.0 F500@1.0 =P; F500@1.0 F500@1.0 =P; F500@1.0 F500@1.0 =P; F500@1.0 F500@1.0 =P",
        ];
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(want) {
            assert_eq!(got, want);
        }
    }
}
