//! Per-kernel result digests at the pinned seed: the pipeline verdict
//! ([`Verdict::digest`]) for `harden` and `durable`, golden steps and
//! outcome counts for `evaluate`. A run at [`SEED`] whose digests differ
//! fails its output gate. A change that alters results on purpose re-pins
//! these from the `digest` lines a run prints to stderr.
//!
//! [`Verdict::digest`]: crate::pipeline::Verdict::digest

pub const SEED: u64 = 42;

pub const HARDEN: &[(&str, u64)] = &[
    ("xsbench", 0xcde40f3c84730a53),
    ("hpccg", 0xa9789fbbc246660a),
    ("fft", 0xb513ae11ba3ce39a),
    ("knn", 0x029a1800ea70d5eb),
    ("pathfinder", 0x02fd6b91f695fdee),
    ("backprop", 0xfb864fae8b31870d),
    ("bfs", 0x2a4d2330516885bb),
    ("particlefilter", 0x7b57246f584abe20),
    ("kmeans", 0xa3d5066b11d42c9a),
    ("lu", 0xc618d5d1a34c206c),
    ("needle", 0x9d29173307575c58),
];

pub const EVALUATE: &[(&str, u64)] = &[
    ("xsbench", 0x2e840a9153882c83),
    ("hpccg", 0x72be72aa1034f086),
    ("fft", 0x4475ae8bcd329b54),
    ("knn", 0x968620aeac2b5547),
    ("pathfinder", 0x175bfd24de99e0ce),
    ("backprop", 0xddb4d6c48d81f2d9),
    ("bfs", 0x680dfdc27bd9e41a),
    ("particlefilter", 0xd3436dd1a650e7be),
    ("kmeans", 0xe6c7e4b18af118e5),
    ("lu", 0x1fe4c5bf317ec414),
    ("needle", 0x3e53a7a1b5794218),
];
