//! Double-precision complex arithmetic.
//!
//! The DigiQ physics layer needs a small, dependency-free complex type with
//! the handful of operations used by Hamiltonian simulation: field
//! arithmetic, conjugation, polar conversion and the complex exponential.
//! [`C64`] is a `Copy` value type mirroring `num_complex::Complex64`'s
//! behaviour for that subset.
//!
//! # Examples
//!
//! ```
//! use qsim::complex::C64;
//!
//! let z = C64::new(3.0, 4.0);
//! assert_eq!(z.abs(), 5.0);
//! assert_eq!((z * z.conj()).re, 25.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// Implements the full field arithmetic (`+`, `-`, `*`, `/`) against both
/// `C64` and `f64` operands, plus the transcendental helpers needed for
/// quantum evolution ([`C64::exp`], [`C64::from_polar`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r · e^{iθ}`.
    ///
    /// ```
    /// use qsim::complex::C64;
    /// let z = C64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z - C64::new(0.0, 2.0)).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        C64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Returns `e^{iθ}`, a unit phase. Ubiquitous in rotating-frame physics.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²`, cheaper than [`C64::abs`].
    #[inline]
    pub fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z = e^{re}·(cos im + i sin im)`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() * 0.5)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Does not panic; returns non-finite parts if `z == 0`, matching IEEE
    /// division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.abs2();
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Multiplies by the imaginary unit: `i·z` without a full complex multiply.
    #[inline]
    pub fn mul_i(self) -> Self {
        C64 {
            re: -self.im,
            im: self.re,
        }
    }

    /// Multiplies by `−i`.
    #[inline]
    pub fn mul_neg_i(self) -> Self {
        C64 {
            re: self.im,
            im: -self.re,
        }
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n < 0 {
            return self.recip().powi(-n);
        }
        let mut base = self;
        let mut acc = C64::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within absolute tolerance `tol` on both parts.
    #[inline]
    pub fn approx_eq(self, other: C64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    // Multiplying by the reciprocal is the defined operation order: the
    // goldens pin its bits, so it must not become a textbook division.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Add<f64> for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: f64) -> C64 {
        C64::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: f64) -> C64 {
        C64::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        C64::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        C64::new(self.re / rhs, self.im / rhs)
    }
}

impl Add<C64> for f64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        rhs + self
    }
}

impl Sub<C64> for f64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self - rhs.re, -rhs.im)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs * self
    }
}

impl Div<C64> for f64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: C64) -> C64 {
        C64::real(self) / rhs
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn constructors_and_accessors() {
        let z = C64::new(1.5, -2.5);
        assert_eq!(z.re, 1.5);
        assert_eq!(z.im, -2.5);
        assert_eq!(C64::real(3.0), C64::new(3.0, 0.0));
        assert_eq!(C64::from(2.0), C64::real(2.0));
    }

    #[test]
    fn field_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        let q = a / b;
        assert!((q * b).approx_eq(a, 1e-12));
        assert_eq!(-a, C64::new(-1.0, -2.0));
    }

    #[test]
    fn scalar_mixed_ops() {
        let a = C64::new(1.0, 2.0);
        assert_eq!(a + 1.0, C64::new(2.0, 2.0));
        assert_eq!(1.0 + a, C64::new(2.0, 2.0));
        assert_eq!(a * 2.0, C64::new(2.0, 4.0));
        assert_eq!(2.0 * a, C64::new(2.0, 4.0));
        assert_eq!(a - 1.0, C64::new(0.0, 2.0));
        assert_eq!(1.0 - a, C64::new(0.0, -2.0));
        assert!((2.0 / a).approx_eq(C64::real(2.0) / a, 1e-15));
    }

    #[test]
    fn conj_abs_arg() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.conj(), C64::new(3.0, -4.0));
        assert_eq!(z.abs2(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!((C64::I.arg() - PI / 2.0).abs() < 1e-15);
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_phase() {
        for k in 0..16 {
            let th = k as f64 * PI / 8.0;
            assert!((C64::cis(th).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exp_matches_euler() {
        let z = C64::new(0.0, PI);
        assert!(z.exp().approx_eq(C64::real(-1.0), 1e-12));
        let w = C64::new(1.0, 0.0);
        assert!(w.exp().approx_eq(C64::real(std::f64::consts::E), 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        let z = C64::new(-3.0, 4.0);
        let r = z.sqrt();
        assert!((r * r).approx_eq(z, 1e-12));
    }

    #[test]
    fn recip_and_powi() {
        let z = C64::new(2.0, -1.0);
        assert!((z * z.recip()).approx_eq(C64::ONE, 1e-12));
        assert!(z.powi(3).approx_eq(z * z * z, 1e-12));
        assert!(z.powi(-2).approx_eq((z * z).recip(), 1e-12));
        assert_eq!(z.powi(0), C64::ONE);
    }

    #[test]
    fn mul_i_shortcuts() {
        let z = C64::new(2.0, 5.0);
        assert_eq!(z.mul_i(), z * C64::I);
        assert_eq!(z.mul_neg_i(), z * -C64::I);
    }

    #[test]
    fn assign_ops() {
        let mut z = C64::new(1.0, 1.0);
        z += C64::ONE;
        z -= C64::I;
        z *= C64::new(0.0, 2.0);
        z /= C64::new(2.0, 0.0);
        assert!(z.approx_eq(C64::new(0.0, 2.0), 1e-12));
        z *= 2.0;
        assert!(z.approx_eq(C64::new(0.0, 4.0), 1e-12));
    }

    #[test]
    fn sum_iterator() {
        let s: C64 = (0..4).map(|k| C64::new(k as f64, 1.0)).sum();
        assert_eq!(s, C64::new(6.0, 4.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn finite_check() {
        assert!(C64::ONE.is_finite());
        assert!(!(C64::ONE / 0.0).is_finite());
    }
}
