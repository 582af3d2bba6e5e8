//! Flat JSON lines: the workspace's shared line-oriented wire codec,
//! re-exported from [`ipas_ir::flatjson`] under its historical path.

pub use ipas_ir::flatjson::{Fields, LineBuilder};
