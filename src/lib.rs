//! Root package of the *Switch-Less Dragonfly on Wafers* reproduction
//! workspace.
//!
//! It holds no code of its own: it is the package of the workspace-level
//! `examples/` and `tests/`, which import everything through the facade
//! crate [`wsdf`] (`wsdf::sim`, `wsdf::topo`, `wsdf::routing`, ...). All
//! functionality lives in the `crates/` members.
