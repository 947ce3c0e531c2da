//! # distenc-serve — model serving for completed tensors
//!
//! The solver's end product is a CP model `[[A⁽¹⁾…A⁽ᴺ⁾]]`; this crate
//! turns that model into a *workload*: an immutable per-mode factor
//! store behind an [`Engine`] answering three query types —
//!
//! * [`Engine::point`] — one completed entry `x̂(i₁,…,i_N)`,
//! * [`Engine::batch`] — many entries in one pass, amortizing factor-row
//!   gathers over a shared rank loop,
//! * [`Engine::topk`] — the exact best `k` indices along one free mode
//!   with all other modes fixed (recommendation / link-scoring), pruned by
//!   Cauchy–Schwarz norm bounds derived from the same factor-Gram
//!   structure the solver exploits for `UᵀU` (Eqs. 11–13).
//!
//! Around the engine sit the production pieces: an LRU cache for
//! repeated top-K queries that each engine owns, a hot-swappable
//! [`LiveEngine`] publishing model generations, a [`ModelRegistry`] of
//! named live engines, a bounded, work-conserving request queue
//! ([`ServeQueue`]: it fronts a registry — one tenant per lane, resolved
//! once — and a worker takes whatever arrived while it was busy and parks
//! only when nothing has), per-query deadlines with graceful degradation
//! (top-K returns best-so-far), and a [`ServeMetrics`] counter block
//! mirroring the accounting style of `dataflow::Metrics`.
//!
//! ```
//! use distenc_serve::{Engine, EngineConfig, TopKQuery};
//! use distenc_tensor::KruskalTensor;
//!
//! let model = KruskalTensor::random(&[100, 50, 10], 4, 7);
//! let engine = Engine::new(&model, EngineConfig::default()).unwrap();
//! let score = engine.point(&[3, 17, 2]).unwrap();
//! assert!((score - model.eval(&[3, 17, 2])).abs() == 0.0);
//! let top = engine
//!     .topk(&TopKQuery { mode: 1, at: vec![3, 0, 2], k: 5 }, None)
//!     .unwrap();
//! assert_eq!(top.items.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod live;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod store;
pub mod ticket;
pub mod topk;
pub mod workload;

pub use cache::LruCache;
pub use engine::{Engine, EngineConfig};
pub use live::{LiveEngine, Pinned, Tagged};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use queue::{AdmissionControl, QueueConfig, ServeQueue, SubmitOpts};
pub use registry::ModelRegistry;
pub use store::FactorStore;
pub use ticket::{Request, Response, ShedReason, Ticket};
pub use topk::{TopKItem, TopKQuery, TopKResult, DEADLINE_CHECK_EVERY};
pub use workload::{
    open_loop_trace, replay_direct, replay_queued, serve_open_loop, synth_trace, OpenLoopConfig,
    OpenLoopReport, TimedRequest, TraceConfig, ZipfSampler,
};

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A query index tuple does not match the model's shape.
    BadQuery(String),
    /// An engine/store/queue configuration value is invalid.
    BadConfig(String),
    /// The bounded request queue is at capacity.
    QueueFull {
        /// Configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The queue has shut down and no longer accepts work.
    ShuttingDown,
    /// A tenant name is not present in the model registry.
    UnknownTenant(String),
    /// A tenant name is already present in the model registry.
    AlreadyRegistered(String),
    /// A model factor holds a `NaN` or infinite value; it is never served.
    NonFiniteModel {
        /// The mode whose factor holds it.
        mode: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            ServeError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "serve queue is shutting down"),
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            ServeError::AlreadyRegistered(name) => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServeError::NonFiniteModel { mode } => {
                write!(f, "model factor {mode} holds a non-finite value")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, ServeError>;
