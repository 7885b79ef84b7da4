//! A simulated model-specific-register file with msr-safe semantics.
//!
//! The paper's GEOPM deployment accesses MSRs "through the msr-safe kernel
//! module" (Section 5.4), which exposes an *allowlist* of registers with
//! per-register read/write permissions. We reproduce the three registers
//! the power stack uses, with their real encodings:
//!
//! | Register | Address | Access | Contents |
//! |---|---|---|---|
//! | `RAPL_POWER_UNIT` | `0x606` | RO | unit exponents: power 1/2³ W, energy 1/2¹⁴ J, time 1/2¹⁰ s |
//! | `PKG_POWER_LIMIT` | `0x610` | RW | PL1 power limit in power units, enable bit 15 |
//! | `PKG_ENERGY_STATUS` | `0x611` | RO | wrapping 32-bit counter in energy units |

use anor_types::{AnorError, Joules, Result, Watts};

/// RAPL unit register address.
pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;
/// Package power-limit register address (PL1).
pub const MSR_PKG_POWER_LIMIT: u32 = 0x610;
/// Package energy-status register address.
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
/// Package power-info register (min/max/TDP), read-only.
pub const MSR_PKG_POWER_INFO: u32 = 0x614;

/// Power unit: 1/8 W per LSB (`RAPL_POWER_UNIT[3:0] = 3`).
pub const POWER_UNIT_WATTS: f64 = 1.0 / 8.0;
/// Energy unit: 1/2¹⁴ J per LSB (`RAPL_POWER_UNIT[12:8] = 14`).
pub const ENERGY_UNIT_JOULES: f64 = 1.0 / 16384.0;
/// Encoded `RAPL_POWER_UNIT` value for the units above (time unit 1/2¹⁰ s).
pub const RAPL_POWER_UNIT_VALUE: u64 = 0x000A_0E03;

/// Enable bit for the PL1 limit in `PKG_POWER_LIMIT`.
pub const PKG_POWER_LIMIT_ENABLE: u64 = 1 << 15;
/// Mask of the PL1 power field.
pub const PKG_POWER_LIMIT_MASK: u64 = 0x7FFF;

/// Per-register access permission, mirroring an msr-safe allowlist entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Register may only be read.
    ReadOnly,
    /// Register may be read and written.
    ReadWrite,
}

/// A simulated MSR register file for one CPU package.
#[derive(Debug, Clone)]
pub struct MsrFile {
    /// `(address, access, value)` per allowlisted register, each address
    /// once. An allowlist holds a handful of registers, so a linear
    /// search beats hashing the address on every access.
    regs: Vec<(u32, Access, u64)>,
    /// Successful software writes through the allowlist (hardware-side
    /// `hw_store`s excluded) — the auditable actuation count causal
    /// tracing reconciles against.
    writes: u64,
}

impl MsrFile {
    /// Build the RAPL register set for a package with the given TDP.
    /// `PKG_POWER_LIMIT` starts at TDP with the enable bit set;
    /// `PKG_ENERGY_STATUS` starts at zero.
    pub fn rapl(tdp: Watts) -> Self {
        let regs = vec![
            (MSR_RAPL_POWER_UNIT, Access::ReadOnly, RAPL_POWER_UNIT_VALUE),
            (
                MSR_PKG_POWER_LIMIT,
                Access::ReadWrite,
                encode_power_limit(tdp) | PKG_POWER_LIMIT_ENABLE,
            ),
            (MSR_PKG_ENERGY_STATUS, Access::ReadOnly, 0),
            // POWER_INFO: TDP in power units in bits [14:0].
            (
                MSR_PKG_POWER_INFO,
                Access::ReadOnly,
                encode_power_limit(tdp),
            ),
        ];
        MsrFile { regs, writes: 0 }
    }

    fn reg(&self, addr: u32) -> Option<&(u32, Access, u64)> {
        self.regs.iter().find(|r| r.0 == addr)
    }

    fn reg_mut(&mut self, addr: u32) -> Option<&mut (u32, Access, u64)> {
        self.regs.iter_mut().find(|r| r.0 == addr)
    }

    /// Read a register; errors on addresses outside the allowlist (the
    /// msr-safe module would return `EPERM`).
    pub fn read(&self, addr: u32) -> Result<u64> {
        self.reg(addr)
            .map(|&(_, _, v)| v)
            .ok_or_else(|| AnorError::platform(format!("MSR {addr:#x} not in allowlist")))
    }

    /// Write a register; errors on unknown addresses and on read-only
    /// registers.
    pub fn write(&mut self, addr: u32, value: u64) -> Result<()> {
        match self.reg_mut(addr) {
            None => Err(AnorError::platform(format!(
                "MSR {addr:#x} not in allowlist"
            ))),
            Some((_, Access::ReadOnly, _)) => {
                Err(AnorError::platform(format!("MSR {addr:#x} is read-only")))
            }
            Some((_, Access::ReadWrite, v)) => {
                *v = value;
                self.writes += 1;
                Ok(())
            }
        }
    }

    /// Count of successful software writes so far.
    pub fn writes_performed(&self) -> u64 {
        self.writes
    }

    /// Privileged hardware-side update of a register, bypassing the
    /// allowlist (how the simulated silicon advances the energy counter).
    pub(crate) fn hw_store(&mut self, addr: u32, value: u64) {
        if let Some((_, _, v)) = self.reg_mut(addr) {
            *v = value;
        }
    }
}

/// Encode a watts value into the `PKG_POWER_LIMIT` PL1 field.
pub fn encode_power_limit(w: Watts) -> u64 {
    ((w.value() / POWER_UNIT_WATTS).round() as u64) & PKG_POWER_LIMIT_MASK
}

/// Decode the PL1 field of a `PKG_POWER_LIMIT` value into watts.
pub fn decode_power_limit(raw: u64) -> Watts {
    Watts((raw & PKG_POWER_LIMIT_MASK) as f64 * POWER_UNIT_WATTS)
}

/// Encode joules into energy-status counter ticks (wrapping at 32 bits).
pub fn encode_energy(j: Joules) -> u64 {
    ((j.value() / ENERGY_UNIT_JOULES) as u64) & 0xFFFF_FFFF
}

/// Decode an energy-status counter value into joules.
pub fn decode_energy(raw: u64) -> Joules {
    Joules((raw & 0xFFFF_FFFF) as f64 * ENERGY_UNIT_JOULES)
}

/// Difference between two successive 32-bit energy readings, accounting
/// for at most one counter wrap (readers must poll faster than the wrap
/// period — ~73 hours at 280 W with these units, ~18 minutes on real
/// silicon with finer units).
pub fn energy_delta(prev_raw: u64, curr_raw: u64) -> Joules {
    let prev = prev_raw & 0xFFFF_FFFF;
    let curr = curr_raw & 0xFFFF_FFFF;
    let ticks = if curr >= prev {
        curr - prev
    } else {
        (1u64 << 32) - prev + curr
    };
    Joules(ticks as f64 * ENERGY_UNIT_JOULES)
}

/// The canonical msr-safe allowlist for this power stack, in the real
/// module's format: `address write_mask # comment` (write mask 0 =
/// read-only). This is what an operator installs into
/// `/dev/cpu/msr_allowlist` to let GEOPM run unprivileged.
pub const DEFAULT_ALLOWLIST: &str = "\
# MSR        write mask           # name
0x606 0x0000000000000000 # MSR_RAPL_POWER_UNIT
0x610 0x00000000000087FF # MSR_PKG_POWER_LIMIT (PL1 field + enable)
0x611 0x0000000000000000 # MSR_PKG_ENERGY_STATUS
0x614 0x0000000000000000 # MSR_PKG_POWER_INFO
";

/// Parse an msr-safe allowlist: `address write_mask` per line, `#`
/// comments, hex with or without `0x`.
pub fn parse_allowlist(r: impl std::io::BufRead) -> Result<Vec<(u32, u64)>> {
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(addr), Some(mask)) = (parts.next(), parts.next()) else {
            return Err(AnorError::platform(format!(
                "allowlist line {}: expected `address write_mask`",
                lineno + 1
            )));
        };
        let parse_hex = |s: &str, what: &str| -> Result<u64> {
            u64::from_str_radix(s.trim_start_matches("0x").trim_start_matches("0X"), 16).map_err(
                |_| AnorError::platform(format!("allowlist line {}: bad {what} `{s}`", lineno + 1)),
            )
        };
        out.push((
            parse_hex(addr, "address")? as u32,
            parse_hex(mask, "write mask")?,
        ));
    }
    Ok(out)
}

impl MsrFile {
    /// Build a register file from an allowlist (entries outside the
    /// simulated RAPL register set are accepted but read as zero, like
    /// untouched MSRs). A non-zero write mask grants write access; when
    /// an address is listed twice, the later line wins.
    pub fn from_allowlist(entries: &[(u32, u64)], tdp: Watts) -> Self {
        let defaults = MsrFile::rapl(tdp);
        let mut file = MsrFile {
            regs: Vec::with_capacity(entries.len()),
            writes: 0,
        };
        for &(addr, mask) in entries {
            let access = if mask != 0 {
                Access::ReadWrite
            } else {
                Access::ReadOnly
            };
            let value = defaults.read(addr).unwrap_or(0);
            match file.reg_mut(addr) {
                Some(reg) => *reg = (addr, access, value),
                None => file.regs.push((addr, access, value)),
            }
        }
        file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rapl_file_has_expected_defaults() {
        let f = MsrFile::rapl(Watts(140.0));
        assert_eq!(f.read(MSR_RAPL_POWER_UNIT).unwrap(), RAPL_POWER_UNIT_VALUE);
        assert_eq!(f.read(MSR_PKG_ENERGY_STATUS).unwrap(), 0);
        let limit = f.read(MSR_PKG_POWER_LIMIT).unwrap();
        assert_ne!(limit & PKG_POWER_LIMIT_ENABLE, 0, "PL1 enabled by default");
        assert_eq!(decode_power_limit(limit), Watts(140.0));
    }

    #[test]
    fn unknown_register_rejected() {
        let mut f = MsrFile::rapl(Watts(140.0));
        assert!(f.read(0x1234).is_err());
        assert!(f.write(0x1234, 0).is_err());
    }

    #[test]
    fn read_only_register_rejects_writes() {
        let mut f = MsrFile::rapl(Watts(140.0));
        assert!(f.write(MSR_PKG_ENERGY_STATUS, 5).is_err());
        assert!(f.write(MSR_RAPL_POWER_UNIT, 5).is_err());
        assert!(f.write(MSR_PKG_POWER_INFO, 5).is_err());
    }

    #[test]
    fn power_limit_round_trip() {
        for w in [70.0, 87.5, 100.0, 140.0] {
            let enc = encode_power_limit(Watts(w));
            assert_eq!(decode_power_limit(enc), Watts(w), "at {w} W");
        }
    }

    #[test]
    fn power_limit_write_read() {
        let mut f = MsrFile::rapl(Watts(140.0));
        f.write(
            MSR_PKG_POWER_LIMIT,
            encode_power_limit(Watts(90.0)) | PKG_POWER_LIMIT_ENABLE,
        )
        .unwrap();
        let v = f.read(MSR_PKG_POWER_LIMIT).unwrap();
        assert_eq!(decode_power_limit(v), Watts(90.0));
    }

    #[test]
    fn energy_encoding_quantizes_to_units() {
        let j = Joules(1.0);
        let enc = encode_energy(j);
        let dec = decode_energy(enc);
        assert!((dec.value() - 1.0).abs() < ENERGY_UNIT_JOULES);
    }

    #[test]
    fn energy_delta_simple() {
        let a = encode_energy(Joules(100.0));
        let b = encode_energy(Joules(350.5));
        let d = energy_delta(a, b);
        assert!((d.value() - 250.5).abs() < 2.0 * ENERGY_UNIT_JOULES);
    }

    #[test]
    fn energy_delta_handles_wrap() {
        // One tick before wrap to three ticks after: delta = 4 ticks.
        let prev = 0xFFFF_FFFF - 1;
        let curr = 3u64;
        let d = energy_delta(prev, curr);
        let expected = 5.0 * ENERGY_UNIT_JOULES;
        assert!((d.value() - expected).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn hw_store_bypasses_allowlist() {
        let mut f = MsrFile::rapl(Watts(140.0));
        f.hw_store(MSR_PKG_ENERGY_STATUS, 42);
        assert_eq!(f.read(MSR_PKG_ENERGY_STATUS).unwrap(), 42);
    }

    #[test]
    fn default_allowlist_parses_and_matches_rapl_set() {
        let entries =
            parse_allowlist(std::io::BufReader::new(DEFAULT_ALLOWLIST.as_bytes())).unwrap();
        assert_eq!(entries.len(), 4);
        let f = MsrFile::from_allowlist(&entries, Watts(140.0));
        // Same access semantics as the built-in RAPL file.
        assert_eq!(f.read(MSR_RAPL_POWER_UNIT).unwrap(), RAPL_POWER_UNIT_VALUE);
        assert_eq!(
            decode_power_limit(f.read(MSR_PKG_POWER_LIMIT).unwrap()),
            Watts(140.0)
        );
        let mut f = f;
        assert!(f.write(MSR_PKG_ENERGY_STATUS, 1).is_err(), "mask 0 = RO");
        assert!(f
            .write(MSR_PKG_POWER_LIMIT, encode_power_limit(Watts(90.0)))
            .is_ok());
    }

    #[test]
    fn allowlist_accepts_unknown_registers_as_zero() {
        let entries = parse_allowlist(std::io::BufReader::new(
            &b"0x1a0 0xffffffffffffffff # IA32_MISC_ENABLE\n"[..],
        ))
        .unwrap();
        let mut f = MsrFile::from_allowlist(&entries, Watts(140.0));
        assert_eq!(f.read(0x1a0).unwrap(), 0);
        f.write(0x1a0, 7).unwrap();
        assert_eq!(f.read(0x1a0).unwrap(), 7);
        // Registers not in the allowlist stay inaccessible.
        assert!(f.read(MSR_PKG_ENERGY_STATUS).is_err());
    }

    #[test]
    fn duplicate_allowlist_line_overrides_the_earlier_one() {
        let entries = [
            (MSR_PKG_POWER_LIMIT, 0x87ff),
            (MSR_PKG_ENERGY_STATUS, 0),
            (MSR_PKG_POWER_LIMIT, 0),
        ];
        let mut f = MsrFile::from_allowlist(&entries, Watts(140.0));
        assert!(
            f.write(MSR_PKG_POWER_LIMIT, 0).is_err(),
            "the later RO line wins"
        );
        assert_eq!(
            decode_power_limit(f.read(MSR_PKG_POWER_LIMIT).unwrap()),
            Watts(140.0)
        );
        let entries = [(MSR_PKG_POWER_LIMIT, 0), (MSR_PKG_POWER_LIMIT, 0x87ff)];
        let mut f = MsrFile::from_allowlist(&entries, Watts(140.0));
        assert!(
            f.write(MSR_PKG_POWER_LIMIT, 0).is_ok(),
            "the later RW line wins"
        );
    }

    #[test]
    fn malformed_allowlists_rejected() {
        let parse = |s: &str| parse_allowlist(std::io::BufReader::new(s.as_bytes()));
        assert!(parse("0x610").is_err(), "missing mask");
        assert!(parse("zzz 0x0").is_err(), "bad address");
        assert!(parse("0x610 qq").is_err(), "bad mask");
        // Comments and blank lines are fine.
        assert_eq!(parse("# only a comment\n\n").unwrap().len(), 0);
        // Bare hex without 0x works too.
        assert_eq!(parse("611 0").unwrap(), vec![(0x611, 0)]);
    }
}
