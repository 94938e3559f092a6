//! `u64` word kernels shared by the bit-plane simulators.
//!
//! The stabilizer tableau and the Pauli-frame engine spend their inner
//! loops XOR-ing and swapping short `u64` slices (bit-columns of a
//! tableau, shot lanes of a frame batch). These helpers centralize those
//! loops as plain word-at-a-time elementwise passes.
//!
//! RNG-driven loops must **not** move here: draw order is part of the
//! reproducibility contract, and these kernels never touch an RNG.

/// `dst[i] ^= src[i]` over the common prefix of the two slices.
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Hadamard column kernel: `sgn ^= x & z`, then exchange `x` and `z`.
#[inline]
pub fn hadamard(x: &mut [u64], z: &mut [u64], sgn: &mut [u64]) {
    let n = x.len().min(z.len()).min(sgn.len());
    for w in 0..n {
        let (xv, zv) = (x[w], z[w]);
        sgn[w] ^= xv & zv;
        x[w] = zv;
        z[w] = xv;
    }
}

/// Phase-gate (S) column kernel: `sgn ^= x & z`, then `z ^= x`.
#[inline]
pub fn phase_s(x: &[u64], z: &mut [u64], sgn: &mut [u64]) {
    let n = x.len().min(z.len()).min(sgn.len());
    for w in 0..n {
        let xv = x[w];
        sgn[w] ^= xv & z[w];
        z[w] ^= xv;
    }
}

/// Inverse-phase-gate (S†) column kernel: `sgn ^= x & !z`, then
/// `z ^= x`.
#[inline]
pub fn phase_sdg(x: &[u64], z: &mut [u64], sgn: &mut [u64]) {
    let n = x.len().min(z.len()).min(sgn.len());
    for w in 0..n {
        let xv = x[w];
        sgn[w] ^= xv & !z[w];
        z[w] ^= xv;
    }
}

/// CX column kernel over a control column pair (`xc`, `zc`) and a
/// target pair (`xt`, `zt`): `sgn ^= xc & zt & !(xt ^ zc)`, then
/// `xt ^= xc` and `zc ^= zt`.
#[inline]
pub fn cx(xc: &[u64], zc: &mut [u64], xt: &mut [u64], zt: &[u64], sgn: &mut [u64]) {
    let n = xc
        .len()
        .min(zc.len())
        .min(xt.len())
        .min(zt.len())
        .min(sgn.len());
    for w in 0..n {
        let (xcv, ztv) = (xc[w], zt[w]);
        sgn[w] ^= xcv & ztv & !(xt[w] ^ zc[w]);
        xt[w] ^= xcv;
        zc[w] ^= ztv;
    }
}

/// CZ column kernel: `sgn ^= xa & xb & (za ^ zb)`, then `za ^= xb` and
/// `zb ^= xa`.
#[inline]
pub fn cz(xa: &[u64], xb: &[u64], za: &mut [u64], zb: &mut [u64], sgn: &mut [u64]) {
    let n = xa
        .len()
        .min(xb.len())
        .min(za.len())
        .min(zb.len())
        .min(sgn.len());
    for w in 0..n {
        let (xav, xbv) = (xa[w], xb[w]);
        sgn[w] ^= xav & xbv & (za[w] ^ zb[w]);
        za[w] ^= xbv;
        zb[w] ^= xav;
    }
}

/// Exchanges the contents of two equal-length slices.
#[inline]
pub fn swap(a: &mut [u64], b: &mut [u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        std::mem::swap(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_into_matches_scalar_loop() {
        for len in [0usize, 1, 3, 4, 5, 8, 11] {
            let mut dst: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9e37)).collect();
            let src: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x51_7cc1)).collect();
            let want: Vec<u64> = dst.iter().zip(&src).map(|(&d, &s)| d ^ s).collect();
            xor_into(&mut dst, &src);
            assert_eq!(dst, want, "len {len}");
        }
    }

    #[test]
    fn swap_exchanges_contents() {
        for len in [0usize, 1, 4, 7] {
            let mut a: Vec<u64> = (0..len as u64).collect();
            let mut b: Vec<u64> = (100..100 + len as u64).collect();
            let (wa, wb) = (b.clone(), a.clone());
            swap(&mut a, &mut b);
            assert_eq!(a, wa, "len {len}");
            assert_eq!(b, wb, "len {len}");
        }
    }
}
