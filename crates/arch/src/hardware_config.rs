//! Hardware setup-parameter files.
//!
//! PIMSYN's third input (Fig. 3) is a set of "hardware setup parameters
//! (e.g., ReRAM's, ADC's and DAC's latency and power)". This module reads
//! [`HardwareParams`] from a flat JSON object so device assumptions can be
//! swapped without recompiling. Missing keys keep their Table III
//! defaults; unknown keys are rejected (they are almost always typos). The
//! DAC power table and the area constants have no key and always keep
//! their Table III values.
//!
//! # Format
//!
//! ```json
//! {
//!   "clock_ghz": 1.0,
//!   "mvm_latency_ns": 100.0,
//!   "crossbar_base_power_mw": 0.3,
//!   "adc_base_power_mw": 2.0,
//!   "scratchpad_kb": 64,
//!   "noc_router_power_mw": 42.0
//! }
//! ```
//!
//! # Example
//!
//! ```
//! use pimsyn_arch::hardware_config;
//!
//! # fn main() -> Result<(), pimsyn_arch::ArchError> {
//! let hw = hardware_config::from_json(r#"{"mvm_latency_ns": 50.0}"#)?;
//! assert!((hw.mvm_latency.nanos() - 50.0).abs() < 1e-9);
//! assert_eq!(hw.scratchpad_bytes, 64 * 1024); // untouched default
//! # Ok(())
//! # }
//! ```

use pimsyn_model::json::JsonValue;

use crate::error::ArchError;
use crate::params::HardwareParams;
use crate::units::{Hertz, Seconds, Watts};

fn bad(detail: String) -> ArchError {
    ArchError::InvalidDesignVariable {
        variable: "hardware config",
        value: detail,
        expected: "a flat JSON object of known keys",
    }
}

/// The validity check of every hardware document. [`from_value`] rejects
/// a non-finite number as it reads it; here the rates, the MVM latency and
/// the flit width, which the models divide by, must be finite and positive
/// after unit conversion (`"clock_ghz": 1e300` overflows to an infinite
/// clock). The ADC range must be non-empty and start at 1 bit or more
/// ([`AdcConfig::new`](crate::AdcConfig::new) clamps into it, which panics
/// on an empty range), ADC power must not fall with resolution (the
/// search's fitness bounds price a shared ADC bank at least at each
/// member's own unit power), and the scratchpad bus must carry at least
/// one byte per beat
/// ([`ScratchpadSpec::read_latency`](crate::ScratchpadSpec::read_latency)
/// divides by its width in bytes).
fn checked(hw: HardwareParams) -> Result<HardwareParams, ArchError> {
    let out_of_range = |value| ArchError::InvalidDesignVariable {
        variable: "hardware config",
        value,
        expected: "positive finite rates, MVM latency and flit width, \
                   1 <= adc_min_bits <= adc_max_bits, adc_power_growth >= 1 and \
                   scratchpad_bus_bits >= 8",
    };
    for (name, value) in [
        ("clock", hw.clock.value()),
        ("mvm_latency", hw.mvm_latency.value()),
        ("dac_rate", hw.dac_rate.value()),
        ("adc_base_rate", hw.adc_base_rate.value()),
        ("noc_link_rate", hw.noc_link_rate.value()),
        ("noc_flit_bits", f64::from(hw.noc_flit_bits)),
    ] {
        if !(value.is_finite() && value > 0.0) {
            return Err(out_of_range(format!("{name} {value}")));
        }
    }
    if hw.adc_min_bits == 0 || hw.adc_min_bits > hw.adc_max_bits {
        return Err(out_of_range(format!(
            "adc bit range {}..{}",
            hw.adc_min_bits, hw.adc_max_bits
        )));
    }
    if hw.adc_power_growth < 1.0 {
        return Err(out_of_range(format!(
            "adc_power_growth {}",
            hw.adc_power_growth
        )));
    }
    if hw.scratchpad_bus_bits < 8 {
        return Err(out_of_range(format!(
            "scratchpad_bus_bits {}",
            hw.scratchpad_bus_bits
        )));
    }
    Ok(hw)
}

/// Parses a hardware-parameter file, starting from Table III defaults.
///
/// # Errors
///
/// [`ArchError::InvalidDesignVariable`] for malformed JSON, unknown keys,
/// non-numeric values, or values the shared validity check rejects.
pub fn from_json(text: &str) -> Result<HardwareParams, ArchError> {
    from_value(&JsonValue::parse(text).map_err(|e| bad(e.to_string()))?)
}

/// [`from_json`] for a document that is already parsed, such as the
/// inline `hw` object of a job. A number too large for an `f64` reaches it
/// as infinity, which JSON text cannot spell, so it is checked here rather
/// than after a round trip through text.
///
/// # Errors
///
/// As [`from_json`], less malformed JSON.
pub fn from_value(doc: &JsonValue) -> Result<HardwareParams, ArchError> {
    let Some(pairs) = doc.as_object() else {
        return Err(bad("top level must be an object".to_string()));
    };
    let mut hw = HardwareParams::date24();
    for (key, value) in pairs {
        let num = value
            .as_f64()
            .ok_or_else(|| bad(format!("`{key}` must be a number")))?;
        if !(num.is_finite() && num >= 0.0) {
            return Err(bad(format!("`{key}` must be finite and non-negative")));
        }
        match key.as_str() {
            "clock_ghz" => hw.clock = Hertz::from_giga(num),
            "mvm_latency_ns" => hw.mvm_latency = Seconds::from_nanos(num),
            "crossbar_base_power_mw" => hw.crossbar_base_power = Watts::from_milli(num),
            "crossbar_size_exponent" => hw.crossbar_size_exponent = num,
            "crossbar_res_factor" => hw.crossbar_res_factor = num,
            "dac_rate_ghz" => hw.dac_rate = Hertz::from_giga(num),
            "adc_base_power_mw" => hw.adc_base_power = Watts::from_milli(num),
            "adc_power_growth" => hw.adc_power_growth = num,
            "adc_base_rate_gsps" => hw.adc_base_rate = Hertz::from_giga(num),
            "adc_min_bits" => hw.adc_min_bits = num as u32,
            "adc_max_bits" => hw.adc_max_bits = num as u32,
            "scratchpad_kb" => {
                hw.scratchpad_bytes = (num as usize)
                    .checked_mul(1024)
                    .ok_or_else(|| bad("`scratchpad_kb` is too large".to_string()))?;
            }
            "scratchpad_bus_bits" => hw.scratchpad_bus_bits = num as u32,
            "scratchpad_power_mw" => hw.scratchpad_power = Watts::from_milli(num),
            "scratchpad_latency_ns" => hw.scratchpad_latency = Seconds::from_nanos(num),
            "noc_flit_bits" => hw.noc_flit_bits = num as u32,
            "noc_ports" => hw.noc_ports = num as u32,
            "noc_router_power_mw" => hw.noc_router_power = Watts::from_milli(num),
            "noc_hop_latency_ns" => hw.noc_hop_latency = Seconds::from_nanos(num),
            "noc_link_rate_ghz" => hw.noc_link_rate = Hertz::from_giga(num),
            "shift_add_power_mw" => hw.shift_add_power = Watts::from_milli(num),
            "pool_power_mw" => hw.pool_power = Watts::from_milli(num),
            "activation_power_mw" => hw.activation_power = Watts::from_milli(num),
            "eltwise_power_mw" => hw.eltwise_power = Watts::from_milli(num),
            "register_power_mw" => hw.register_power = Watts::from_milli(num),
            other => return Err(bad(format!("unknown key `{other}`"))),
        }
    }
    checked(hw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_is_table3_defaults() {
        assert_eq!(from_json("{}").unwrap(), HardwareParams::date24());
    }

    #[test]
    fn overrides_apply_and_defaults_survive() {
        let hw = from_json(r#"{"adc_base_power_mw": 1.0, "noc_ports": 4}"#).unwrap();
        assert!((hw.adc_base_power.milli() - 1.0).abs() < 1e-12);
        assert_eq!(hw.noc_ports, 4);
        assert_eq!(hw.scratchpad_bytes, 64 * 1024);
    }

    #[test]
    fn unknown_key_rejected() {
        let err = from_json(r#"{"adc_base_powr_mw": 1.0}"#).unwrap_err();
        assert!(err.to_string().contains("adc_base_powr_mw"));
    }

    #[test]
    fn non_numeric_rejected() {
        assert!(from_json(r#"{"noc_ports": "eight"}"#).is_err());
        assert!(from_json(r#"{"noc_ports": -1}"#).is_err());
        assert!(from_json("[1,2]").is_err());
        assert!(from_json("{").is_err());
    }

    #[test]
    fn bad_adc_range_rejected() {
        assert!(from_json(r#"{"adc_min_bits": 12, "adc_max_bits": 8}"#).is_err());
    }

    /// Each value is rejected both as file text ([`from_json`]) and as an
    /// already-parsed object ([`from_value`], a job's inline `hw`).
    #[test]
    fn values_the_models_cannot_evaluate_are_rejected_in_both_spellings() {
        for (text, needle) in [
            (r#"{"scratchpad_bus_bits": 7}"#, "scratchpad_bus_bits 7"),
            (r#"{"adc_max_bits": 0}"#, "adc bit range 7..0"),
            (r#"{"adc_min_bits": 0}"#, "adc bit range 0..14"),
            (r#"{"adc_power_growth": 0.5}"#, "adc_power_growth 0.5"),
            // The rates, latency and width the models divide by, non-finite
            // values and a scratchpad past `usize`: the error names the
            // field (a prefix of its key).
            (r#"{"mvm_latency_ns": 0}"#, "mvm_latency"),
            (r#"{"clock_ghz": 0}"#, "clock"),
            (r#"{"clock_ghz": 1e400}"#, "clock"),
            (r#"{"clock_ghz": 1e300}"#, "clock"),
            (r#"{"dac_rate_ghz": 0}"#, "dac_rate"),
            (r#"{"adc_base_rate_gsps": 0}"#, "adc_base_rate"),
            (r#"{"noc_link_rate_ghz": 0}"#, "noc_link_rate"),
            (r#"{"noc_flit_bits": 0}"#, "noc_flit_bits"),
            (r#"{"adc_power_growth": 1e400}"#, "adc_power_growth"),
            (r#"{"scratchpad_kb": 1e300}"#, "scratchpad_kb"),
        ] {
            for err in [
                from_json(text).unwrap_err(),
                from_value(&JsonValue::parse(text).unwrap()).unwrap_err(),
            ] {
                let err = err.to_string();
                assert!(err.contains(needle), "{text}: `{err}` lacks `{needle}`");
            }
        }
        let hw = from_json(r#"{"scratchpad_bus_bits": 8}"#).unwrap();
        assert_eq!(hw.scratchpad_bus_bits, 8);
    }

    /// A document that sets all 25 hardware-file keys, each away from its
    /// Table III value, sets every field in the field's unit.
    #[test]
    fn every_key_sets_its_field() {
        let keys = [
            ("clock_ghz", "2"),
            ("mvm_latency_ns", "50"),
            ("crossbar_base_power_mw", "0.5"),
            ("crossbar_size_exponent", "1.5"),
            ("crossbar_res_factor", "0.2"),
            ("dac_rate_ghz", "2"),
            ("adc_base_power_mw", "3"),
            ("adc_power_growth", "1.5"),
            ("adc_base_rate_gsps", "2.5"),
            ("adc_min_bits", "4"),
            ("adc_max_bits", "12"),
            ("scratchpad_kb", "32"),
            ("scratchpad_bus_bits", "128"),
            ("scratchpad_power_mw", "10"),
            ("scratchpad_latency_ns", "4"),
            ("noc_flit_bits", "64"),
            ("noc_ports", "5"),
            ("noc_router_power_mw", "21"),
            ("noc_hop_latency_ns", "2"),
            ("noc_link_rate_ghz", "0.5"),
            ("shift_add_power_mw", "0.25"),
            ("pool_power_mw", "0.5"),
            ("activation_power_mw", "0.125"),
            ("eltwise_power_mw", "0.375"),
            ("register_power_mw", "2"),
        ];
        // Each value alone moves the parameters off Table III, so a key the
        // parser dropped would show in the comparison below.
        for (key, value) in keys {
            let one = from_json(&format!(r#"{{"{key}": {value}}}"#)).unwrap();
            assert_ne!(one, HardwareParams::date24(), "{key}");
        }
        let pairs: Vec<String> = keys.iter().map(|(k, v)| format!(r#""{k}": {v}"#)).collect();
        let hw = from_json(&format!("{{{}}}", pairs.join(", "))).unwrap();
        let want = HardwareParams {
            clock: Hertz::from_giga(2.0),
            mvm_latency: Seconds::from_nanos(50.0),
            crossbar_base_power: Watts::from_milli(0.5),
            crossbar_size_exponent: 1.5,
            crossbar_res_factor: 0.2,
            dac_rate: Hertz::from_giga(2.0),
            adc_base_power: Watts::from_milli(3.0),
            adc_power_growth: 1.5,
            adc_base_rate: Hertz::from_giga(2.5),
            adc_min_bits: 4,
            adc_max_bits: 12,
            scratchpad_bytes: 32 * 1024,
            scratchpad_bus_bits: 128,
            scratchpad_power: Watts::from_milli(10.0),
            scratchpad_latency: Seconds::from_nanos(4.0),
            noc_flit_bits: 64,
            noc_ports: 5,
            noc_router_power: Watts::from_milli(21.0),
            noc_hop_latency: Seconds::from_nanos(2.0),
            noc_link_rate: Hertz::from_giga(0.5),
            shift_add_power: Watts::from_milli(0.25),
            pool_power: Watts::from_milli(0.5),
            activation_power: Watts::from_milli(0.125),
            eltwise_power: Watts::from_milli(0.375),
            register_power: Watts::from_milli(2.0),
            ..HardwareParams::date24()
        };
        assert_eq!(hw, want);
    }
}
