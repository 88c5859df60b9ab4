//! Manually-designed PIM accelerator baselines and comparison machinery for
//! the PIMSYN reproduction.
//!
//! The paper compares auto-synthesized accelerators against five manual
//! designs (Table IV), runs ISAAC end-to-end (Fig. 6), ablates duplication
//! strategies (Fig. 7) and compares with the Gibbon co-exploration tool
//! (Table V). The Fig. 7 arms are synthesis options
//! (`pimsyn::WtDupStrategy`) that `pimsyn_bench` runs; this crate
//! implements the other comparators:
//!
//! - [`inventory`]: component-inventory models of PipeLayer / ISAAC / PRIME
//!   / PUMA / AtomLayer evaluated under the *same* Table III power model.
//! - [`isaac`]: a full ISAAC-like fixed architecture runnable on the
//!   cycle-accurate simulator.
//! - [`gibbon`]: a Gibbon-like greedy co-exploration proxy plus the
//!   published Table V constants ([`published`]).
//!
//! # Example
//!
//! ```
//! use pimsyn_arch::HardwareParams;
//! use pimsyn_baselines::inventory;
//!
//! let hw = HardwareParams::date24();
//! let isaac = inventory::isaac();
//! let eff = isaac.peak_tops_per_watt(16, 16, &hw);
//! assert!(eff > 0.2 && eff < 2.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gibbon;
pub mod inventory;
pub mod isaac;
pub mod published;
