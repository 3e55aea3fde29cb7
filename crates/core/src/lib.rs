//! The subgraph query processing framework.
//!
//! A *subgraph query* (Definition II.2) retrieves every data graph in a
//! database `D` that contains a connected query graph `q`. This crate wires
//! the substrates — [`sqp_index`] feature indices and [`sqp_matching`]
//! matching algorithms — into the paper's three engine categories:
//!
//! | Category | Engines | Filtering | Verification |
//! |----------|---------|-----------|--------------|
//! | IFV (Algorithm 1)   | [`engines::CtIndexEngine`], [`engines::GrapesEngine`], [`engines::GgsxEngine`] | feature index | VF2 |
//! | vcFV (Algorithm 2)  | [`engines::CflEngine`], [`engines::GraphQlEngine`], [`engines::CfqlEngine`] | matcher preprocessing | first-match enumeration |
//! | IvcFV               | [`engines::VcGrapesEngine`], [`engines::VcGgsxEngine`] | index + preprocessing | CFQL enumeration |
//!
//! All engines implement [`QueryEngine`], report the same timing breakdown
//! (filtering vs verification, the paper's §IV metrics), and enforce a
//! per-query time budget (10 minutes in the paper, configurable here).

// Library code avoids unwrap/expect (CI denies them); tests may use them freely.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod breaker;
pub mod chaos;
pub mod collection;
pub mod continuous;
pub mod coordinator;
pub mod dispatch;
pub mod engine;
pub mod engines;
pub mod exposition;
pub mod journal;
pub mod metrics;
pub mod parallel;
pub mod runner;
pub mod service;
pub mod shard;
pub mod supervisor;
pub mod verifier;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerRegistry, BreakerState, BreakerTransition};
pub use chaos::{
    ChaosConfig, ChaosMatcher, FaultKind, FlappyConfig, FlappyMatcher, SlowMatcher, StreamProfile,
    StuckMatcher, UpdateStreamGen,
};
pub use continuous::{
    BatchError, BatchReport, ContinuousMatcher, ContinuousService, ContinuousStats, DynamicDb,
    RepairDelta, StandingQuery,
};
pub use coordinator::{Coordinator, CoordinatorConfig, ShardPeerStats};
pub use engine::{
    BuildReport, EngineCategory, GraphFailure, QueryEngine, QueryOutcome, QueryStatus,
};
pub use journal::{db_fingerprint, JournalStats, RunJournal};
pub use metrics::{LatencyHistogram, QueryRecord, QuerySetReport, QueryTotals, ServiceHealth};
pub use parallel::{ParallelOutcome, QueryPool};
pub use runner::{run_query_set, run_query_set_journaled, RunnerConfig};
pub use service::{
    Admission, DrainReport, QueryService, QueryTicket, ServiceConfig, ShedPolicy, ShedReason,
};
pub use shard::{shard_of, ShardPlacement, ShardServer, ShardServerConfig, WireServer};
pub use supervisor::SupervisorConfig;
pub use wire::{
    Greeting, Message, WireChaos, WireChaosConfig, WireClient, WireConfig, WireError, WireFault,
};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::breaker::{BreakerConfig, BreakerRegistry, BreakerState, BreakerTransition};
    pub use crate::chaos::{
        ChaosConfig, ChaosMatcher, FaultKind, FlappyConfig, FlappyMatcher, SlowMatcher,
        StreamProfile, StuckMatcher, UpdateStreamGen,
    };
    pub use crate::collection::{CollectionMatcher, GraphMatches};
    pub use crate::continuous::{
        BatchError, BatchReport, ContinuousMatcher, ContinuousService, ContinuousStats, DynamicDb,
        RepairDelta, StandingQuery,
    };
    pub use crate::coordinator::{Coordinator, CoordinatorConfig, ShardPeerStats};
    pub use crate::engine::{
        BuildReport, EngineCategory, GraphFailure, QueryEngine, QueryOutcome, QueryStatus,
    };
    pub use crate::engines::{
        matcher_by_name, CflEngine, CfqlEngine, CtIndexEngine, Engine, GgsxEngine, GrapesEngine,
        GraphQlEngine, ParallelEngine, VcGgsxEngine, VcGrapesEngine,
    };
    pub use crate::journal::{db_fingerprint, JournalStats, RunJournal};
    pub use crate::metrics::{
        LatencyHistogram, QueryRecord, QuerySetReport, QueryTotals, ServiceHealth,
    };
    pub use crate::parallel::{ParallelOutcome, QueryPool};
    pub use crate::runner::{run_query_set, run_query_set_journaled, RunnerConfig};
    pub use crate::service::{
        Admission, DrainReport, QueryService, QueryTicket, ServiceConfig, ShedPolicy, ShedReason,
    };
    pub use crate::shard::{shard_of, ShardPlacement, ShardServer, ShardServerConfig, WireServer};
    pub use crate::supervisor::SupervisorConfig;
    pub use crate::wire::{
        Greeting, Message, WireChaos, WireChaosConfig, WireClient, WireConfig, WireError, WireFault,
    };
}
