//! Which vector instruction set the GEMM runs on, chosen per call.
//!
//! The crate compiles for the target's baseline (SSE2, four lanes, on
//! x86-64). The GEMM is written once as an `#[inline(always)]` body and
//! instantiated again inside `#[target_feature]` entry points for AVX2
//! (eight lanes) and AVX-512 (sixteen). A call takes the widest one
//! `is_x86_feature_detected!` reports, so there is nothing to configure.
//! Wider vectors change which elements share an instruction, never one
//! element's operations or their order, and Rust never contracts
//! `a * b + c` into an FMA even where the feature is enabled, so every
//! instantiation produces the same bits.

/// An instruction set the GEMM has an instantiation for. Every value but
/// `Portable` is constructed only after its feature, and every narrower
/// one's, was detected on this CPU: that is the safety argument of every
/// dispatch on it (an `Avx512` caller may also run the AVX2 copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The compile target's baseline: runs on every CPU of the target.
    Portable,
    /// 256-bit vectors.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit vectors.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The widest instruction set this CPU runs. Miri cannot execute
    /// `cpuid` or vector code, so under Miri it is always `Portable`.
    pub(crate) fn widest() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if !cfg!(miri) && is_x86_feature_detected!("avx2") {
            return if is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else {
                Isa::Avx2
            };
        }
        Isa::Portable
    }

    /// Every instruction set this CPU runs, narrowest first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        let mut all = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        match Isa::widest() {
            Isa::Avx512 => all.extend([Isa::Avx2, Isa::Avx512]),
            Isa::Avx2 => all.push(Isa::Avx2),
            Isa::Portable => {}
        }
        all
    }
}
