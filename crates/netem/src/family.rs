//! Trace families: the repo's one table binding a trace *name* to the
//! generator that builds it.
//!
//! Every tool that names a network regime — scenario and fleet specs,
//! matrix lines, the exhibit cells of `fig`, the `voxel` CLI — goes
//! through [`TraceFamily`]: [`TraceFamily::parse`] accepts the spec
//! **token** (`tmobile`, `const8`, `cross20`, …), [`TraceFamily::legend`]
//! is what figures print (`T-Mobile`), and [`TraceFamily::build`] is the
//! only place a name reaches a [`generators`] function or the
//! cross-traffic model.

use crate::crosstraffic::{available_bandwidth, CrossTrafficConfig};
use crate::trace::{generators, BandwidthTrace};

/// Which bandwidth trace a run is shaped by.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceFamily {
    /// Constant rate in Mbps (`const8`, `const3.5`).
    Constant(f64),
    /// Step from `before` to `after` Mbps at `at_s` (`step8-2@60`).
    Step {
        /// Rate before the step, Mbps.
        before: f64,
        /// Rate after the step, Mbps.
        after: f64,
        /// Step time, seconds.
        at_s: usize,
    },
    /// T-Mobile LTE generator (violent swings, deep fades).
    TMobile,
    /// Verizon LTE generator.
    Verizon,
    /// AT&T LTE generator (moderate variation).
    Att,
    /// Norway 3G commute generator (mild variation).
    Norway3g,
    /// FCC fixed-line generator (slow variation).
    Fcc,
    /// In-the-wild WiFi generator.
    WildWifi,
    /// What the paper's 20 Mbps link leaves the video flow under this
    /// many Mbps of Harpoon-style cross traffic (`cross20`; at most the
    /// link rate).
    Cross(f64),
    /// The `i`-th of the 86 raw 3G commute traces (`raw3g5`); it ignores
    /// the seed.
    Raw3g(usize),
}

/// One row of the name table.
struct Named {
    family: TraceFamily,
    /// What every parser accepts.
    token: &'static str,
    /// What figures print.
    legend: &'static str,
    build: fn(u64, usize) -> BandwidthTrace,
}

const fn named(
    family: TraceFamily,
    token: &'static str,
    legend: &'static str,
    build: fn(u64, usize) -> BandwidthTrace,
) -> Named {
    Named {
        family,
        token,
        legend,
        build,
    }
}

/// The six seeded §5 families — the only name → generator binding in
/// the workspace.
static NAMED: [Named; 6] = [
    named(
        TraceFamily::TMobile,
        "tmobile",
        "T-Mobile",
        generators::tmobile_lte,
    ),
    named(
        TraceFamily::Verizon,
        "verizon",
        "Verizon",
        generators::verizon_lte,
    ),
    named(TraceFamily::Att, "att", "AT&T", generators::att_lte),
    named(TraceFamily::Norway3g, "3g", "3G", generators::norway_3g),
    named(TraceFamily::Fcc, "fcc", "FCC", generators::fcc),
    named(
        TraceFamily::WildWifi,
        "wifi",
        "in-the-wild",
        generators::wild_wifi,
    ),
];

/// The size of the raw 3G commute set ([`TraceFamily::Raw3g`]).
const RAW_3G_TRACES: usize = 86;

/// Parse a rate in Mbit/s: finite and above zero, or nothing. Shared by
/// every rate-carrying token (`const`, `step`, the fleet's `o<mbps>`).
pub fn positive_mbps(s: &str) -> Option<f64> {
    s.parse().ok().filter(|m: &f64| m.is_finite() && *m > 0.0)
}

impl TraceFamily {
    /// The six seeded §5 families, in table order.
    pub fn named() -> [TraceFamily; 6] {
        std::array::from_fn(|i| NAMED[i].family.clone())
    }

    /// Everything [`TraceFamily::parse`] accepts, for usage strings.
    pub fn menu() -> String {
        let tokens: Vec<&str> = NAMED.iter().map(|r| r.token).collect();
        format!(
            "const<mbps>|step<a>-<b>@<s>|cross<mbps>|raw3g<i>|{}",
            tokens.join("|")
        )
    }

    /// Parse a trace token (`const8`, `step8-2@60`, `tmobile`, …). The
    /// error says what would have been accepted in its place.
    pub fn parse(tok: &str) -> Result<TraceFamily, String> {
        if let Some(row) = NAMED.iter().find(|r| r.token == tok) {
            return Ok(row.family.clone());
        }
        if let Some(rate) = tok.strip_prefix("const") {
            return positive_mbps(rate)
                .map(TraceFamily::Constant)
                .ok_or_else(|| "a finite rate above 0 in const<mbps>".to_string());
        }
        if let Some(body) = tok.strip_prefix("step") {
            let parsed = body.split_once('@').and_then(|(rates, at)| {
                let (before, after) = rates.split_once('-')?;
                Some(TraceFamily::Step {
                    before: positive_mbps(before)?,
                    after: positive_mbps(after)?,
                    at_s: at.parse().ok()?,
                })
            });
            return parsed.ok_or_else(|| {
                "step<before>-<after>@<at_s> with finite rates above 0".to_string()
            });
        }
        if let Some(offered) = tok.strip_prefix("cross") {
            // The model's client pool grows with the offered load, so a
            // spec may not ask for more than the link carries.
            return positive_mbps(offered)
                .filter(|&m| m <= CrossTrafficConfig::paper(m).capacity_mbps)
                .map(TraceFamily::Cross)
                .ok_or_else(|| "an offered load in (0, 20] Mbps in cross<mbps>".to_string());
        }
        if let Some(i) = tok.strip_prefix("raw3g") {
            // `norway_3g_raw` asserts on its index, and a spec is outside
            // input.
            return i
                .parse()
                .ok()
                .filter(|&i| i < RAW_3G_TRACES)
                .map(TraceFamily::Raw3g)
                .ok_or_else(|| format!("a trace index below {RAW_3G_TRACES} in raw3g<i>"));
        }
        Err(format!("a trace family ({})", TraceFamily::menu()))
    }

    fn row(&self) -> Option<&'static Named> {
        NAMED.iter().find(|r| r.family == *self)
    }

    /// The canonical spec token (inverse of [`TraceFamily::parse`]).
    pub fn token(&self) -> String {
        match self {
            TraceFamily::Constant(m) => format!("const{m}"),
            TraceFamily::Step {
                before,
                after,
                at_s,
            } => format!("step{before}-{after}@{at_s}"),
            TraceFamily::Cross(offered) => format!("cross{offered}"),
            TraceFamily::Raw3g(i) => format!("raw3g{i}"),
            #[expect(
                clippy::expect_used,
                reason = "every unit variant has a NAMED row (pinned by `table_has_two_name_columns`)"
            )]
            named => named.row().expect("named family").token.into(),
        }
    }

    /// The name figures print: the §5 legend (`T-Mobile`, `AT&T`, …) for
    /// the seeded families, the token for the synthetic ones.
    pub fn legend(&self) -> String {
        self.row().map_or_else(|| self.token(), |r| r.legend.into())
    }

    /// Materialize the trace. Synthetic families and the raw 3G traces
    /// ignore `seed`; the §5 generators and the cross-traffic model
    /// derive everything from it, so distinct sweep seeds
    /// explore distinct (but reproducible) bandwidth processes.
    pub fn build(&self, seed: u64, duration_s: usize) -> BandwidthTrace {
        match *self {
            TraceFamily::Constant(mbps) => BandwidthTrace::constant(mbps, duration_s),
            TraceFamily::Step {
                before,
                after,
                at_s,
            } => BandwidthTrace::step(before, after, at_s, duration_s),
            TraceFamily::Cross(offered) => {
                available_bandwidth(&CrossTrafficConfig::paper(offered), duration_s, seed)
            }
            TraceFamily::Raw3g(i) => generators::norway_3g_raw(i, duration_s),
            #[expect(
                clippy::expect_used,
                reason = "every unit variant has a NAMED row (pinned by `table_has_two_name_columns`)"
            )]
            ref named => (named.row().expect("named family").build)(seed, duration_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_and_build_requested_durations() {
        for tok in "const8 const3.5 step8-2@60 tmobile verizon att 3g fcc wifi cross20 cross12.5 \
                    raw3g0 raw3g85"
            .split_whitespace()
        {
            let f = TraceFamily::parse(tok).expect(tok);
            assert_eq!(f.token(), tok);
            let t = f.build(1, 120);
            assert_eq!(t.duration_s(), 120, "{tok}");
            // Seeded families vary with the seed; synthetic ones and the
            // fixed raw 3G set don't.
            let other = f.build(2, 120);
            match f {
                TraceFamily::Constant(_) | TraceFamily::Step { .. } | TraceFamily::Raw3g(_) => {
                    assert_eq!(t, other)
                }
                _ => assert_ne!(t.mbps, other.mbps, "{tok} ignores the seed"),
            }
        }
    }

    #[test]
    fn table_has_two_name_columns() {
        let legends: Vec<String> = TraceFamily::named().iter().map(|f| f.legend()).collect();
        assert_eq!(
            legends,
            ["T-Mobile", "Verizon", "AT&T", "3G", "FCC", "in-the-wild"]
        );
        for f in TraceFamily::named() {
            // The legend is also the built trace's own name, and only the
            // token parses.
            assert_eq!(f.build(1, 10).name, f.legend());
            assert_eq!(TraceFamily::parse(&f.token()), Ok(f.clone()));
            assert!(TraceFamily::menu().contains(&f.token()));
        }
        assert!(TraceFamily::parse("T-Mobile").is_err());
        assert_eq!(TraceFamily::Constant(8.0).legend(), "const8");
    }

    #[test]
    fn malformed_rates_are_rejected() {
        for bad in "constNaN const-5 const0 constinf const stepNaN--3@5 step8-0@5 step8-2 step8@5 \
                    step8-2@x warp9 cross crossNaN cross0 cross-5 cross20.5 crossinf raw3g raw3g86 \
                    raw3g-1 raw3gx"
            .split_whitespace()
        {
            assert!(TraceFamily::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
