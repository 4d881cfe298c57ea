//! The flow registry: every synthesis flow the CLI, the benchmark harness
//! and the daemon run, each under one name.
//!
//! The paper's flow is the FPRM pipeline with its two factorization
//! methods (Section 3); Table 2 compares it against the SIS SOP scripts.
//! The registry adds the Kronecker-FDD extension and a parse-and-re-emit
//! `none`. A flow's [`Flow::name`] is both its `--method` value and the
//! `flow` label of its benchmark telemetry records.

use crate::engine::Engine;
use crate::error::Error;
use crate::synth::{FactorMethod, SynthOptions, SynthReport};
use xsynth_net::Network;
use xsynth_sop::{script_algebraic, ScriptOptions};

/// A synthesis flow.
///
/// # Examples
///
/// ```
/// use xsynth_core::{Engine, Flow};
/// use xsynth_net::{GateKind, Network};
///
/// let mut spec = Network::new("f");
/// let a = spec.add_input("a");
/// let b = spec.add_input("b");
/// let g = spec.add_gate(GateKind::Xor, vec![a, b]);
/// spec.add_output("f", g);
/// let flow = Flow::parse("cube").unwrap();
/// let (network, report) = flow.run(&Engine::new(), &spec)?;
/// assert!(report.is_some(), "FPRM-family flows report their phases");
/// assert_eq!(network.eval_u64(1), spec.eval_u64(1));
/// # Ok::<(), xsynth_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// The paper's FPRM flow, keeping the cheaper factorization method per
    /// output (the default).
    Fprm,
    /// The FPRM flow with the cube method only (Section 3, method 1).
    Cube,
    /// The FPRM flow with the OFDD method only (Section 3, method 2).
    Ofdd,
    /// The FPRM flow lowered through Kronecker FDDs (an extension).
    Kfdd,
    /// The SIS-style SOP baseline of Table 2.
    Sop,
    /// No optimization: parse and re-emit.
    None,
}

impl Flow {
    /// Every flow, in the order `--method` lists them.
    pub const ALL: [Flow; 6] = [
        Flow::Fprm,
        Flow::Cube,
        Flow::Ofdd,
        Flow::Kfdd,
        Flow::Sop,
        Flow::None,
    ];

    /// The flow's one name: its `--method` value and telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            Flow::Fprm => "fprm",
            Flow::Cube => "cube",
            Flow::Ofdd => "ofdd",
            Flow::Kfdd => "kfdd",
            Flow::Sop => "sop",
            Flow::None => "none",
        }
    }

    /// The flow called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Flow> {
        Flow::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The factorization method of an FPRM-family flow; `None` for `sop`
    /// and `none`, which run no FPRM engine.
    pub fn method(self) -> Option<FactorMethod> {
        match self {
            Flow::Fprm => Some(FactorMethod::Best),
            Flow::Cube => Some(FactorMethod::Cube),
            Flow::Ofdd => Some(FactorMethod::Ofdd),
            Flow::Kfdd => Some(FactorMethod::Kfdd),
            Flow::Sop | Flow::None => None,
        }
    }

    /// Runs the flow on `spec`. FPRM-family flows synthesize through
    /// `engine`, under its options with this flow's method, and return the
    /// synthesis report; `sop` and `none` leave the engine unused and have
    /// no report.
    ///
    /// # Errors
    ///
    /// The errors of [`Engine::try_synthesize`].
    pub fn run(
        self,
        engine: &Engine,
        spec: &Network,
    ) -> Result<(Network, Option<SynthReport>), Error> {
        let Some(method) = self.method() else {
            let network = match self {
                Flow::Sop => script_algebraic(spec, &ScriptOptions::default()),
                _ => spec.sweep(),
            };
            return Ok((network, None));
        };
        let opts = SynthOptions {
            method,
            ..engine.options().clone()
        };
        let outcome = engine.try_synthesize_with(spec, &opts)?;
        Ok((outcome.network, Some(outcome.report)))
    }
}
