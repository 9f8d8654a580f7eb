//! Seeded, splittable randomness.
//!
//! Every stochastic component of the reproduction (VBR size noise, trace
//! generation, cross-traffic arrivals, survey panel) draws from a
//! [`SimRng`] derived from a root seed plus a label, so adding a new
//! consumer never perturbs the draws of existing ones.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic RNG wrapper with convenience distributions.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create from a raw 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive a child RNG from a root seed and a label.
    ///
    /// Uses FNV-1a over the label mixed into the seed so that
    /// `derive(s, "trace")` and `derive(s, "vbr")` are independent streams.
    pub fn derive(root_seed: u64, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::from_seed(root_seed ^ h)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1: f64 = self.uniform().max(1e-12);
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with given mean and standard deviation.
    pub fn normal_ms(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Exponential with the given rate (mean = 1/rate).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -self.uniform().max(1e-12).ln() / rate
    }

    /// Bounded Pareto (heavy-tailed) — the classic web-object-size model
    /// Harpoon uses for cross-traffic flow sizes.
    pub fn pareto(&mut self, scale: f64, shape: f64, cap: f64) -> f64 {
        debug_assert!(scale > 0.0 && shape > 0.0 && cap >= scale);
        let u = self.uniform().max(1e-12);
        (scale / u.powf(1.0 / shape)).min(cap)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_labels_are_independent() {
        let mut a = SimRng::derive(42, "trace");
        let mut b = SimRng::derive(42, "vbr");
        // Not a strict independence test, but the streams must differ.
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::from_seed(7);
        for _ in 0..1000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SimRng::from_seed(1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::from_seed(2);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn pareto_respects_bounds() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let x = r.pareto(1_000.0, 1.2, 1e7);
            assert!((1_000.0..=1e7).contains(&x));
        }
    }

    #[test]
    fn index_within_bounds() {
        let mut r = SimRng::from_seed(4);
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    /// The first 64 `next_u64` draws of `SimRng::from_seed(0)`.
    #[rustfmt::skip]
    const SEED_0: [u64; 64] = [
        0x5317_5d61_490b_23df, 0x61da_6f3d_c380_d507, 0x5c0f_df91_ec9a_7bfc, 0x02ee_bf8c_3bbe_5e1a,
        0x7eca_04eb_af4a_5eea, 0x0543_c377_57f0_8d9a, 0xdb74_90c7_5ab5_026e, 0xd873_43e6_464b_c959,
        0x4b7d_a0a0_2389_f0ff, 0x1300_fc58_c042_4c16, 0x5084_8432_06c1_9968, 0x10ea_073d_e9aa_4dfc,
        0x1aae_5543_4396_0cc1, 0x1804_139f_10fa_e720, 0x10d7_90e7_b8ac_10fa, 0x667d_2bff_dd14_96f7,
        0xa046_20d3_d0fc_04a8, 0x1d50_8812_30af_9cc3, 0x53be_287d_ed35_f698, 0x6732_3579_3f79_08e1,
        0x46e9_1feb_4535_fbdc, 0x216c_1524_cbac_57c0, 0x0a53_eb08_063a_44df, 0x45f9_65b9_4877_8197,
        0x6f2f_a9d0_1ba0_3887, 0x60c5_7eba_69ed_4e15, 0x22c6_5ce9_77dd_39cb, 0xa5d1_ce0c_5a7c_6abf,
        0xe8e2_6337_cde1_3268, 0x0b4a_575f_db6f_8160, 0x400f_eb0b_ae78_6424, 0x633e_0b62_1080_bf50,
        0x5a45_6e5a_144e_059b, 0xdc75_548b_5cd2_e8cd, 0xdf9d_76f7_6664_8113, 0x342b_f8b7_aec0_de41,
        0x8315_93e6_b50a_e928, 0x29e1_2b2a_1872_d7db, 0xb636_2d8b_640a_ec49, 0x2e78_698e_b5bb_a4a9,
        0x9064_494b_8287_afb9, 0x4c04_974c_6c1b_4767, 0x5863_b868_5408_be73, 0x0e8c_a571_066b_c302,
        0x0889_59d6_3895_6a37, 0x2e93_92df_d5c3_0e86, 0x36da_000d_696e_9d9e, 0x2a83_9b60_548c_1044,
        0x3ebb_affc_c5f2_70ca, 0x6da0_2738_c0f9_2ee5, 0x962f_d831_57fe_1682, 0x856d_cc08_8cec_e014,
        0xca87_1735_1ab2_4cbd, 0x2315_2755_2d01_8184, 0x0679_3b14_8396_07ec, 0xc54f_89a7_e193_e5c1,
        0xbacc_209d_d739_707c, 0x7dc7_0535_80f1_ff20, 0x4ee6_9665_9cc1_be91, 0xa3cb_5d77_6992_1646,
        0x9c00_2aaa_8a68_7ded, 0xc0c3_a216_563d_9ae2, 0x035b_6d98_ee8a_1b19, 0x68d8_9ab6_ea60_f57d,
    ];

    /// The first 64 `next_u64` draws of `SimRng::from_seed(1)`.
    #[rustfmt::skip]
    const SEED_1: [u64; 64] = [
        0xcfc5_d07f_6f03_c29b, 0xbf42_4132_963f_e08d, 0x19a3_7d57_57aa_f520, 0xbf08_119f_05cd_56d6,
        0x2f47_184b_8618_6fa4, 0x9729_9fca_e720_2345, 0xfca3_c795_08f4_1507, 0x85fe_a5c9_0363_f221,
        0x18ba_e5b3_0d33_4bd0, 0x2261_13c9_f026_ec16, 0xeb9e_0ef9_dccf_e649, 0x57ef_aedd_9f6c_ffb3,
        0x128a_e2d5_6976_40d6, 0x6503_3a4e_ee50_5049, 0x16e9_453e_d54a_88ba, 0x2806_5aa8_f428_a8bb,
        0x8ea0_4716_5f04_1da2, 0x7910_32d9_a4f7_2ef3, 0xf538_8254_2839_ed9e, 0xa46a_deb1_4080_0f4a,
        0x4394_01c5_3ed0_d70b, 0xcb3f_b2f0_cfd1_060a, 0x28a2_2329_58e0_6eeb, 0x69d8_ec3a_36a7_ffa4,
        0x3cd9_741a_15d0_a26b, 0x9a4e_bf2d_376d_ba70, 0x2f27_c4c8_cc76_f56a, 0xfb68_dacb_355a_2892,
        0x9c77_7291_84aa_08f8, 0xbae7_a269_e524_8e36, 0x97f3_078d_c02e_78af, 0xa646_c7e9_5f6e_d1df,
        0x81df_0abd_f578_c676, 0x9ecd_7c9d_a746_b5fd, 0xf44a_5948_aaf0_b536, 0x52b4_4e31_3e40_0271,
        0x1bb5_f30c_c319_48fd, 0xbbf8_3318_4be0_68ea, 0xe70e_2ead_13b4_04f4, 0xb115_c91c_2095_ae67,
        0x7867_2edc_8b5a_cacc, 0x7fbb_09ea_b8d1_b4d7, 0x631f_1cdf_5e4e_66ed, 0xceb9_764e_32a5_c00e,
        0x91e7_fea4_0602_fe82, 0x9863_64e1_57c3_6241, 0xa03a_545a_fe1d_cc87, 0x3316_b851_7edb_39ec,
        0x1588_ceb8_1a66_7937, 0x0f1f_d6f5_d7e6_580c, 0xbeba_dfa4_44a5_2451, 0x91a8_3dd3_6f6f_1f3d,
        0x4faf_0f08_1376_10fe, 0x27be_8394_1190_9013, 0x6f4d_e384_08d7_3bc7, 0x7d52_27ec_cb8e_066a,
        0x3859_a14d_6b88_4869, 0x42cb_0b2b_0c27_cb53, 0x6527_8361_2021_36df, 0x1524_4033_82bb_b7c2,
        0x2cab_33c6_c2ce_2ee9, 0x763a_9a9b_5976_a28f, 0xd811_a286_f404_1273, 0x5ca3_764b_bdf7_fb18,
    ];

    /// The first 64 `next_u64` draws of `SimRng::from_seed(2021)`.
    #[rustfmt::skip]
    const SEED_2021: [u64; 64] = [
        0xcc76_1268_2b1f_8e82, 0xb425_34e6_b6a9_94c1, 0x8951_7ad6_5a7f_04be, 0xee71_dc9f_8c60_88c5,
        0xddc6_310f_60eb_7dbd, 0x7ced_b8fb_015c_eec0, 0xe8de_9bb9_db76_831f, 0xdc11_ba8a_b9f2_fe0b,
        0x1414_e074_ab49_b6db, 0x6b32_7938_ff2d_bd4b, 0x872f_965b_3cdf_ec50, 0x9180_69da_729c_519d,
        0x365d_bc67_6668_07ff, 0x0be0_ffb4_ed6d_56c8, 0x99ff_1124_fb7b_5e1a, 0x85d4_7f8f_249a_2e3f,
        0x7965_250f_eb25_5f84, 0xcaf0_983d_9622_a8ea, 0x56f8_9fdb_68b1_4512, 0xdbf0_c706_778f_e6cb,
        0x8ba6_8f3d_da40_4424, 0x0084_c49d_e41c_8ed4, 0xb445_9c21_05f4_c943, 0xf18b_356f_2246_fa26,
        0xf0d3_ada0_744e_3a49, 0xea81_cb88_363d_d338, 0x8ce0_f599_5f08_57c3, 0x31c3_f425_b3a1_309f,
        0xcc9a_d984_20ab_c649, 0x976f_e2c8_8c98_6a20, 0x675d_9291_d614_2d9c, 0xb4f1_2dd5_240a_208a,
        0xfab7_457b_08c2_3164, 0x17e1_41cd_17ad_2f2d, 0x187b_fa9f_3d88_52c1, 0x05d4_7987_f836_216d,
        0x465f_9560_638b_b86a, 0x97ab_f90a_52ac_bbf1, 0xa749_54c5_ef38_7451, 0x4c42_6c94_b2d5_e903,
        0x4a6c_e394_b8da_fa2e, 0x4fe2_e52a_c547_3ebb, 0x318e_18b3_b538_07d0, 0xbc94_054e_e9d5_a4aa,
        0xf48d_b08c_a3cf_3e08, 0xcc0a_5c66_238a_ff4a, 0x3d9f_8755_3c6e_5ced, 0x9a4d_2962_e2f5_2dcf,
        0xdf6e_8aeb_ad8b_daad, 0x720b_bf36_bd75_769f, 0xcb2e_ed66_c896_82fa, 0xa610_e2f0_e0b9_6ac5,
        0x0899_eac6_e53d_f45b, 0x10af_ad1b_8e00_f918, 0x413b_a77a_2566_204e, 0x94d9_3f57_f18b_6a8c,
        0xad38_5364_96f7_e989, 0x1cd8_4ba9_f178_be60, 0x37aa_00a1_7793_7abb, 0x603e_8fc2_bc10_fb9a,
        0xa541_35c3_78a7_3174, 0x72f9_31f6_605c_108c, 0x70d1_a538_cd69_dbca, 0xa0b8_ed3f_a9dc_b734,
    ];

    /// The first 64 `next_u64` draws of `SimRng::derive(2021, "trace")`.
    #[rustfmt::skip]
    const DERIVE_2021_TRACE: [u64; 64] = [
        0x387b_2e0c_7386_31b7, 0x9c5f_a1e3_d5f2_e6fc, 0x8c48_dc90_58ce_f36a, 0x2084_0a30_f393_d848,
        0x1848_c9e5_c04e_6398, 0x73a9_c907_a799_a281, 0x92eb_462f_28f4_7a4d, 0x06d7_4057_d169_7f56,
        0x00be_8417_9af5_9bd5, 0x291e_841e_0d74_e95a, 0x1ce7_3138_4020_b22f, 0xefcf_07de_3650_30c2,
        0x815e_7f61_d100_496f, 0xcce8_1f8f_58e2_506a, 0x5fa6_d4f6_0b8c_a8fc, 0x81c2_38e9_11dc_43ea,
        0x8005_9640_db99_64c2, 0x2a37_2771_85a2_c044, 0xabf1_a512_ec17_990a, 0x9362_9371_4db9_7160,
        0x0d77_2dff_e02c_6a79, 0x7706_1c25_213d_6d01, 0xfdf3_283a_11c7_081a, 0xd563_f50f_00f5_a6ab,
        0xee68_0ca4_a72c_fc23, 0xc609_3e8a_bad5_7cc0, 0xf819_8e07_71ef_d492, 0x2e03_1c43_4b3e_0df4,
        0xe11d_f8d5_e7ee_8e2c, 0x4729_682d_012a_0ce4, 0xaa6a_86f6_8c9d_3e7c, 0x57c0_ebb2_6312_3cb1,
        0x9d60_5a3d_3feb_9803, 0x2aa7_2573_a5d1_891b, 0x3f4d_21f5_a259_4763, 0x01ab_20d9_ea89_da5a,
        0x7370_483e_edee_7256, 0xd457_ed6c_eb12_787e, 0x313a_6444_22d7_849b, 0xfab5_7438_8bd7_654d,
        0xb45b_0710_495c_83af, 0xb2a5_a20e_f46b_4dda, 0x3079_ba91_4e1d_88a5, 0x84f8_7a8f_fc13_9fe0,
        0x44a4_7a18_5ec5_7aa6, 0xc721_8cf5_948b_cfca, 0x6f10_5103_6a3d_3c3f, 0x960a_05b5_d83e_3984,
        0xf5fb_bbdd_f1de_fd68, 0xb270_fbd3_a4cf_77e6, 0xae1b_7f15_5e48_e70a, 0x772f_c0e0_6e2b_e95a,
        0xb6fe_a6c5_9b40_e37e, 0xa6ea_682d_9832_c071, 0xd5cd_c4b0_95b9_2d91, 0xae51_a990_3d1a_1a2b,
        0xc233_8338_56da_6de3, 0x3db2_2d83_029b_bde6, 0xf0e4_89e3_77c1_dd6b, 0xc064_1175_837c_5182,
        0x5373_bf38_49f2_75cd, 0xb6ef_0de7_f767_cd51, 0xa559_9194_bc2c_71e5, 0x1938_0c6e_c11f_5d94,
    ];

    /// Every draw in the workspace descends from these streams, so they
    /// are pinned bit for bit: the generator behind `SimRng` may change
    /// implementation, never output.
    #[test]
    fn first_draws_are_pinned() {
        let pinned = [
            (SimRng::from_seed(0), SEED_0),
            (SimRng::from_seed(1), SEED_1),
            (SimRng::from_seed(2021), SEED_2021),
            (SimRng::derive(2021, "trace"), DERIVE_2021_TRACE),
        ];
        for (i, (mut rng, want)) in pinned.into_iter().enumerate() {
            let got: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want, "stream {i}");
        }
    }
}
