//! `autocat-lint`: the workspace invariant checker.
//!
//! Every reproduction claim this repo makes — Table IV rows, census
//! buckets, serve-vs-oneshot bit-identity — rests on invariants that
//! digest tests can only catch *after the fact*, far from the offending
//! line: fixed-order reductions, no entropy-seeded RNG, no hash-order
//! iteration feeding reports, no panics in the daemon request path. This
//! crate enforces those contracts *statically*, so a stray `HashMap` or
//! `Instant::now()` fails CI at the line that introduced it.
//!
//! It is a hand-rolled, dependency-free source analyzer (the build is
//! offline — no `syn`): a line-level lexer ([`lexer`]) strips comments
//! and string contents, a rule registry ([`rules`]) defines the named
//! lints (D1/D2/D3/D4/R1/U1/A0), and the engine ([`engine`]) walks every
//! covered `.rs` file, applies `// lint: allow(<rule>) -- <reason>`
//! suppressions, and renders `file:line rule message` findings.
//!
//! The binary (`cargo run -p autocat-lint --release`) exits nonzero on
//! any unsuppressed violation and is a `ci.sh` gate; `--list-allows`
//! prints the full suppression audit. See ARCHITECTURE.md, "Static
//! analysis & enforced invariants".

pub mod engine;
pub mod lexer;
pub mod rules;
