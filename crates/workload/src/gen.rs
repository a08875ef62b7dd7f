//! Deterministic scalable graph generator.
//!
//! Produces IMDB-shaped semistructured graphs — movie entries with
//! titles, years, Zipf-skewed genre links into a shared genre table,
//! casts with skew-popular actors, directors, and `References` chains
//! that close into cycles — as a *stream* of [`GenOp`]s. The stream is
//! a pure function of [`GenConfig`]: the same config yields the same
//! ops in the same order, byte for byte, at any scale, and generation
//! holds O(1) state beyond the config-derived skew tables (nothing is
//! buffered per node or per edge, so 10^7-edge streams need no
//! intermediate materialization).
//!
//! Node ids are assigned by arithmetic, not by a counter carried in the
//! stream: a consumer that applies ops in order against a fresh
//! [`Graph`] (whose root is node 0 and whose `add_node` allocates
//! sequentially) sees exactly the ids the ops name. [`build_graph`]
//! does that; [`fingerprint`] folds the stream into an FNV-1a hash
//! without building anything.

use ssd_graph::{Graph, Label};

/// Shared genre-table size. Fixed so the node-id layout is independent
/// of scale; small graphs simply use few of them.
pub const GENRES: u64 = 64;

const GENRE_BASE: [&str; 16] = [
    "Drama",
    "Comedy",
    "Thriller",
    "Noir",
    "Western",
    "Musical",
    "Documentary",
    "Animation",
    "Romance",
    "Horror",
    "Adventure",
    "Mystery",
    "War",
    "Crime",
    "Fantasy",
    "Biography",
];

/// Everything the generator is parameterized by. `scale` is the target
/// edge count; the actual stream lands within one movie block of it.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Target number of edges (10^4 … 10^7 are the intended range).
    pub scale: u64,
    /// Stream seed: same seed ⇒ byte-identical stream.
    pub seed: u64,
    /// Actors per cast.
    pub fanout: u64,
    /// Zipf exponent for genre and actor popularity (1.0 ≈ classic).
    pub skew: f64,
    /// Characters per generated string payload (titles, names).
    pub payload: usize,
    /// Fraction of movies that participate in `References` chains
    /// (each chain closes into a cycle).
    pub cycle_density: f64,
    /// Movies per `References` chain.
    pub chain: u64,
}

impl GenConfig {
    pub fn new(scale: u64, seed: u64) -> GenConfig {
        GenConfig {
            scale,
            seed,
            fanout: 3,
            skew: 1.0,
            payload: 12,
            cycle_density: 0.05,
            chain: 8,
        }
    }

    /// Non-cycle edges emitted per movie block.
    fn edges_per_movie(&self) -> u64 {
        10 + 2 * self.fanout
    }

    /// Nodes allocated per movie block.
    fn nodes_per_movie(&self) -> u64 {
        9 + 2 * self.fanout
    }

    /// Movies the stream will emit for this scale.
    pub fn movies(&self) -> u64 {
        let fixed = 1 + 3 * GENRES; // genre-table edges
        (self.scale.saturating_sub(fixed) / self.edges_per_movie()).max(1)
    }

    /// One `References` chain starts every this-many chain-sized blocks.
    fn chain_period(&self) -> u64 {
        if self.cycle_density <= 0.0 {
            return u64::MAX;
        }
        ((1.0 / self.cycle_density).round() as u64).max(1)
    }

    /// Distinct actors drawn from (popularity is Zipf over this pool).
    fn actor_pool(&self) -> u64 {
        (self.movies() / 4).clamp(16, 65_536)
    }

    /// Distinct directors drawn from.
    fn director_pool(&self) -> u64 {
        (self.movies() / 8).clamp(4, 16_384)
    }

    /// The node id of movie `i`'s `Entry` node (see module docs: ids
    /// are pure arithmetic over the config).
    pub fn entry_id(&self, i: u64) -> u64 {
        2 + 3 * GENRES + i * self.nodes_per_movie()
    }

    /// The exact title of movie `i` — the σ-label lookup scenario uses
    /// this to build point queries that are guaranteed to hit.
    pub fn title_of(&self, i: u64) -> String {
        let mut rng = movie_rng(self.seed, i);
        payload_string(&mut rng, self.payload)
    }
}

/// An atomic value carried by a [`GenOp::ValEdge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenValue {
    Str(String),
    Int(i64),
}

/// One step of the generated stream. `Node { id }` allocates the node
/// with that id (consumers allocating sequentially from a fresh graph
/// get it for free); edges only ever name already-allocated ids.
#[derive(Debug, Clone, PartialEq)]
pub enum GenOp {
    Node {
        id: u64,
    },
    SymEdge {
        from: u64,
        name: &'static str,
        to: u64,
    },
    ValEdge {
        from: u64,
        value: GenValue,
        to: u64,
    },
}

/// SplitMix64 — tiny, seedable, and self-contained, so the stream's
/// bytes depend on nothing but this file.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-movie RNG: a pure function of `(seed, movie)`, so any movie's
/// payloads can be regenerated in isolation (`title_of`) and the stream
/// does not thread RNG state across movies.
fn movie_rng(seed: u64, movie: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ SplitMix64::new(movie.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64())
}

const BASE62: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

fn payload_string(rng: &mut SplitMix64, len: usize) -> String {
    let mut s = String::with_capacity(len);
    for _ in 0..len.max(1) {
        s.push(BASE62[rng.below(62) as usize] as char);
    }
    s
}

/// Zipf sampler over `{0, …, n-1}` with exponent `s`: a precomputed
/// cumulative table (O(n) once per run, not per sample) binary-searched
/// per draw. Rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Zipf {
        let n = n.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

fn genre_name(k: u64) -> String {
    let base = GENRE_BASE[(k % 16) as usize];
    if k < 16 {
        base.to_string()
    } else {
        format!("{base}{}", k / 16 + 1)
    }
}

/// The streaming generator: an iterator over [`GenOp`]s. Holds the
/// config, the two skew tables, and a per-movie op buffer — O(1) in the
/// stream length.
pub struct Generator {
    cfg: GenConfig,
    movies: u64,
    genre_zipf: Zipf,
    actor_zipf: Zipf,
    buf: std::collections::VecDeque<GenOp>,
    /// Next unit of work: genre `k` for `k < GENRES` (plus the holder
    /// preamble at 0), else movie `k - GENRES`.
    unit: u64,
}

impl Generator {
    pub fn new(cfg: GenConfig) -> Generator {
        let movies = cfg.movies();
        Generator {
            genre_zipf: Zipf::new(GENRES, cfg.skew),
            actor_zipf: Zipf::new(cfg.actor_pool(), cfg.skew),
            movies,
            cfg,
            buf: std::collections::VecDeque::new(),
            unit: 0,
        }
    }

    fn push_attr(&mut self, from: u64, name: &'static str, mid: u64, value: GenValue) {
        self.buf.push_back(GenOp::Node { id: mid });
        self.buf.push_back(GenOp::SymEdge {
            from,
            name,
            to: mid,
        });
        self.buf.push_back(GenOp::Node { id: mid + 1 });
        self.buf.push_back(GenOp::ValEdge {
            from: mid,
            value,
            to: mid + 1,
        });
    }

    fn fill_genre(&mut self, k: u64) {
        if k == 0 {
            // Preamble: the shared genre table hangs off root --Genres-->.
            self.buf.push_back(GenOp::Node { id: 1 });
            self.buf.push_back(GenOp::SymEdge {
                from: 0,
                name: "Genres",
                to: 1,
            });
        }
        let g = 2 + 3 * k;
        self.buf.push_back(GenOp::Node { id: g });
        self.buf.push_back(GenOp::SymEdge {
            from: 1,
            name: "Genre",
            to: g,
        });
        self.push_attr(g, "Name", g + 1, GenValue::Str(genre_name(k)));
    }

    fn fill_movie(&mut self, i: u64) {
        let cfg = self.cfg.clone();
        let mut rng = movie_rng(cfg.seed, i);
        let e = cfg.entry_id(i);
        let m = e + 1;
        self.buf.push_back(GenOp::Node { id: e });
        self.buf.push_back(GenOp::SymEdge {
            from: 0,
            name: "Entry",
            to: e,
        });
        self.buf.push_back(GenOp::Node { id: m });
        self.buf.push_back(GenOp::SymEdge {
            from: e,
            name: "Movie",
            to: m,
        });
        // Draw order is a stream invariant: title first (title_of
        // regenerates it from a fresh per-movie RNG), then the rest.
        let title = payload_string(&mut rng, cfg.payload);
        self.push_attr(m, "Title", e + 2, GenValue::Str(title));
        let year = 1900 + rng.below(126) as i64;
        self.push_attr(m, "Year", e + 4, GenValue::Int(year));
        let genre = self.genre_zipf.sample(&mut rng);
        self.buf.push_back(GenOp::SymEdge {
            from: m,
            name: "Genre",
            to: 2 + 3 * genre,
        });
        let c = e + 6;
        self.buf.push_back(GenOp::Node { id: c });
        self.buf.push_back(GenOp::SymEdge {
            from: m,
            name: "Cast",
            to: c,
        });
        for j in 0..cfg.fanout {
            let actor = self.actor_zipf.sample(&mut rng);
            self.push_attr(
                c,
                "Actor",
                e + 7 + 2 * j,
                GenValue::Str(format!("Actor {actor}")),
            );
        }
        let director = rng.below(cfg.director_pool());
        self.push_attr(
            m,
            "Director",
            e + 7 + 2 * cfg.fanout,
            GenValue::Str(format!("Director {director}")),
        );
        // `References` chains: every `chain_period`-th block of `chain`
        // consecutive movies is linked entry-to-entry (each edge points
        // backward, the closing edge makes it a cycle).
        let block = i / cfg.chain;
        if block.is_multiple_of(cfg.chain_period()) {
            let pos = i % cfg.chain;
            if pos > 0 {
                self.buf.push_back(GenOp::SymEdge {
                    from: e,
                    name: "References",
                    to: cfg.entry_id(i - 1),
                });
            }
            let start = block * cfg.chain;
            let last_of_block = pos == cfg.chain - 1 || i == self.movies - 1;
            if last_of_block && start != i {
                self.buf.push_back(GenOp::SymEdge {
                    from: cfg.entry_id(start),
                    name: "References",
                    to: e,
                });
            }
        }
    }
}

impl Iterator for Generator {
    type Item = GenOp;

    fn next(&mut self) -> Option<GenOp> {
        while self.buf.is_empty() {
            let unit = self.unit;
            if unit < GENRES {
                self.fill_genre(unit);
            } else if unit - GENRES < self.movies {
                self.fill_movie(unit - GENRES);
            } else {
                return None;
            }
            self.unit += 1;
        }
        self.buf.pop_front()
    }
}

/// Materialize the stream into a [`Graph`]. Node ids line up with the
/// arithmetic the ops carry (debug-asserted).
pub fn build_graph(cfg: &GenConfig) -> Graph {
    let mut g = Graph::new();
    apply_ops(&mut g, Generator::new(cfg.clone()));
    g
}

/// Apply a stream of ops to a graph whose next allocated node id is the
/// first `Node { id }` in the stream. O(ops): edges go through one
/// [`ssd_graph::EdgeLoader`], so the root, which gains an edge per
/// movie, is deduplicated once instead of scanned per insert. Every edge
/// set is a set again when this returns.
pub fn apply_ops(g: &mut Graph, ops: impl Iterator<Item = GenOp>) {
    let mut load = g.loader();
    for op in ops {
        match op {
            GenOp::Node { id } => {
                let n = load.add_node();
                debug_assert_eq!(n.index() as u64, id, "generator id arithmetic drifted");
                let _ = (n, id);
            }
            GenOp::SymEdge { from, name, to } => {
                load.add_sym_edge(node(from), name, node(to));
            }
            GenOp::ValEdge { from, value, to } => {
                let v = match value {
                    GenValue::Str(s) => ssd_graph::Value::from(s),
                    GenValue::Int(i) => ssd_graph::Value::from(i),
                };
                load.add_edge(node(from), Label::Value(v), node(to));
            }
        }
    }
}

fn node(id: u64) -> ssd_graph::NodeId {
    ssd_graph::NodeId::from_index(id as usize)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one op into a running FNV-1a hash (stable byte encoding).
pub fn hash_op(h: u64, op: &GenOp) -> u64 {
    match op {
        GenOp::Node { id } => fnv1a(fnv1a(h, b"N"), &id.to_le_bytes()),
        GenOp::SymEdge { from, name, to } => {
            let h = fnv1a(fnv1a(h, b"S"), &from.to_le_bytes());
            let h = fnv1a(h, name.as_bytes());
            fnv1a(h, &to.to_le_bytes())
        }
        GenOp::ValEdge { from, value, to } => {
            let h = fnv1a(fnv1a(h, b"V"), &from.to_le_bytes());
            let h = match value {
                GenValue::Str(s) => fnv1a(fnv1a(h, b"s"), s.as_bytes()),
                GenValue::Int(i) => fnv1a(fnv1a(h, b"i"), &i.to_le_bytes()),
            };
            fnv1a(h, &to.to_le_bytes())
        }
    }
}

/// Hash the whole stream without materializing it: the byte-identity
/// witness `ssd bench` records (same config ⇒ same fingerprint).
pub fn fingerprint(cfg: &GenConfig) -> u64 {
    Generator::new(cfg.clone()).fold(FNV_OFFSET, |h, op| hash_op(h, &op))
}

/// Count the edges the stream emits (cheap: no strings are hashed).
pub fn edge_count(cfg: &GenConfig) -> u64 {
    Generator::new(cfg.clone())
        .filter(|op| !matches!(op, GenOp::Node { .. }))
        .count() as u64
}
