//! `net_overlap` — the paper's own regime: page accesses dominate. Every
//! GET costs 500 µs, and the only levers are the ones that hide or avoid
//! GETs: a four-worker fetch pool, single-flight coalescing, and a shared
//! page cache whose 256 KiB budget is deliberately below the 417 KB wrapped
//! working set of the seven hot queries, so it evicts constantly.
//!
//! Same site, queries and schedule as `hot_navigate`; two closed-loop
//! clients. CPU-layer speedups should barely move it.

use super::serving::{self, Spec};
use super::{hot_navigate, medium_site, Outcome, RunCfg};
use std::time::Duration;

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let spec = Spec {
        site: medium_site(),
        clients: 2,
        get_latency: Duration::from_micros(500),
        overlap: Some((4, 256 * 1024)),
        open: None,
        price_product_trace: false,
        setup_reps: 5,
        window: hot_navigate::CYCLE,
    };
    serving::run(&spec, |_| hot_navigate::mix(cfg.seed), cfg)
}
