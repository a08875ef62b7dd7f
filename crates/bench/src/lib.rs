//! Shared fixtures for the experiment report (`src/bin/report.rs`).
//!
//! Every experiment is indexed in DESIGN.md §4 and reported in
//! EXPERIMENTS.md. Workloads come from `ssd-data` with fixed seeds so runs
//! are reproducible.

use semistructured::Graph;
use ssd_data::movies::{movie_database, MovieDbConfig};
use ssd_data::webgraph::{clustered_graph, web_graph, WebGraphConfig};

/// Build the standard movie database of a given entry count.
pub fn movies(entries: usize) -> Graph {
    movie_database(&MovieDbConfig::sized(entries))
}

/// Standard web graph.
pub fn web(pages: usize) -> Graph {
    web_graph(&WebGraphConfig {
        pages,
        mean_links: 4,
        skew: 0.7,
        seed: 7,
    })
}

/// Chain-of-clusters graph for the decomposition experiment.
pub fn clusters(k: usize, size: usize) -> Graph {
    clustered_graph(k, size, 3)
}
