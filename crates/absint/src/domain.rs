//! The abstract domains: intervals over `i64` with ±∞, boolean
//! truthiness and reference nullness — combined as a product in
//! [`AbsVal`].
//!
//! Every operation errs toward ⊤ (no information); the only way an
//! analysis result can be wrong is a transfer function claiming more
//! than the concrete semantics guarantees, so each transfer here models
//! the *solver-visible* semantics: operations the SMT layer leaves
//! uninterpreted (nonlinear multiplication, division and modulus by
//! non-constants) map to ⊤.

/// An interval `[lo, hi]` over `i64` with `None` as ±∞.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
}

impl Interval {
    /// The full interval (⊤).
    pub const TOP: Interval = Interval { lo: None, hi: None };

    /// The singleton `[n, n]`.
    pub fn exact(n: i64) -> Interval {
        Interval {
            lo: Some(n),
            hi: Some(n),
        }
    }

    /// `[lo, +∞)`.
    pub fn at_least(lo: i64) -> Interval {
        Interval {
            lo: Some(lo),
            hi: None,
        }
    }

    /// `(-∞, hi]`.
    pub fn at_most(hi: i64) -> Interval {
        Interval {
            lo: None,
            hi: Some(hi),
        }
    }

    /// True when the interval contains no integer (the meet produced ⊥).
    pub fn is_empty(&self) -> bool {
        matches!((self.lo, self.hi), (Some(l), Some(h)) if l > h)
    }

    /// True when the interval is a single known constant.
    pub fn as_const(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) if l == h => Some(l),
            _ => None,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Greatest lower bound (may be empty).
    pub fn meet(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Standard widening: bounds that grew since `self` jump to ∞.
    pub fn widen(&self, next: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, next.lo) {
                (Some(a), Some(b)) if b < a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
            hi: match (self.hi, next.hi) {
                (Some(a), Some(b)) if b > a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
        }
    }

    /// Abstract addition (saturating to ∞ on overflow).
    pub fn add(&self, other: &Interval) -> Interval {
        let lift = |a: Option<i64>, b: Option<i64>| match (a, b) {
            (Some(x), Some(y)) => x.checked_add(y),
            _ => None,
        };
        Interval {
            lo: lift(self.lo, other.lo),
            hi: lift(self.hi, other.hi),
        }
    }

    /// Abstract subtraction.
    pub fn sub(&self, other: &Interval) -> Interval {
        self.add(&other.neg())
    }

    /// Abstract negation.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.and_then(|h| h.checked_neg()),
            hi: self.lo.and_then(|l| l.checked_neg()),
        }
    }

    /// Abstract multiplication by a constant.
    pub fn mul_const(&self, k: i64) -> Interval {
        if k == 0 {
            return Interval::exact(0);
        }
        let scaled = Interval {
            lo: self.lo.and_then(|l| l.checked_mul(k)),
            hi: self.hi.and_then(|h| h.checked_mul(k)),
        };
        if k > 0 {
            scaled
        } else {
            Interval {
                lo: scaled.hi,
                hi: scaled.lo,
            }
        }
    }

    /// True when every value of `self` is ≤ every value of `other`.
    pub fn definitely_le(&self, other: &Interval) -> bool {
        matches!((self.hi, other.lo), (Some(a), Some(b)) if a <= b)
    }

    /// True when every value of `self` is < every value of `other`.
    pub fn definitely_lt(&self, other: &Interval) -> bool {
        matches!((self.hi, other.lo), (Some(a), Some(b)) if a < b)
    }

    /// True when the two intervals cannot share a value.
    pub fn definitely_ne(&self, other: &Interval) -> bool {
        self.definitely_lt(other) || other.definitely_lt(self)
    }
}

/// Three-valued boolean truthiness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truth {
    /// Definitely `true`.
    True,
    /// Definitely `false`.
    False,
    /// Unknown.
    Top,
}

impl Truth {
    /// Logical negation.
    pub fn not(&self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Top => Truth::Top,
        }
    }
}

/// Definite nullness of a reference value (`null`/`undefined` count as
/// null).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Nullness {
    /// Definitely not null/undefined.
    NonNull,
    /// Definitely null or undefined.
    Null,
    /// Unknown.
    Top,
}

/// Least upper bound in a flat lattice ([`Truth`], [`Nullness`]): two
/// different definite values join to `top`.
fn join_flat<T: PartialEq>(a: T, b: T, top: T) -> T {
    if a == b {
        a
    } else {
        top
    }
}

/// Greatest lower bound in a flat lattice: `None` (⊥) when `a` and `b`
/// are two different definite values.
fn meet_flat<T: PartialEq>(a: T, b: T, top: T) -> Option<T> {
    if a == top || a == b {
        Some(b)
    } else if b == top {
        Some(a)
    } else {
        None
    }
}

/// The product of every domain, one record per abstract value.
/// Components irrelevant to a value's actual type simply stay ⊤. There
/// is no ⊥ value: [`AbsVal::meet`] and [`AbsVal::reduce`] answer `None`
/// where the value would be empty, and the engine marks that program
/// point unreachable instead of storing anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Numeric range.
    pub itv: Interval,
    /// Boolean truthiness.
    pub truth: Truth,
    /// Reference nullness.
    pub null: Nullness,
    /// Range of `len(v)` for array references.
    pub len: Interval,
}

impl AbsVal {
    /// ⊤ in every component.
    pub const TOP: AbsVal = AbsVal {
        itv: Interval::TOP,
        truth: Truth::Top,
        null: Nullness::Top,
        len: Interval::TOP,
    };

    /// The abstract integer `n`.
    pub fn int(n: i64) -> AbsVal {
        AbsVal {
            itv: Interval::exact(n),
            ..AbsVal::TOP
        }
    }

    /// The abstract boolean `b`.
    pub fn bool(b: bool) -> AbsVal {
        AbsVal {
            truth: if b { Truth::True } else { Truth::False },
            ..AbsVal::TOP
        }
    }

    /// A known-null reference.
    pub fn null() -> AbsVal {
        AbsVal {
            null: Nullness::Null,
            ..AbsVal::TOP
        }
    }

    /// A known-non-null reference with the given length range.
    pub fn non_null(len: Interval) -> AbsVal {
        AbsVal {
            null: Nullness::NonNull,
            len,
            ..AbsVal::TOP
        }
    }

    /// The value itself, or `None` (⊥) when an interval is empty.
    pub fn reduce(self) -> Option<AbsVal> {
        (!self.itv.is_empty() && !self.len.is_empty()).then_some(self)
    }

    /// Least upper bound (componentwise).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            itv: self.itv.join(&other.itv),
            truth: join_flat(self.truth, other.truth, Truth::Top),
            null: join_flat(self.null, other.null, Nullness::Top),
            len: self.len.join(&other.len),
        }
    }

    /// Greatest lower bound, reduced: `None` (⊥) when the two values
    /// contradict each other.
    pub fn meet(&self, other: &AbsVal) -> Option<AbsVal> {
        AbsVal {
            itv: self.itv.meet(&other.itv),
            truth: meet_flat(self.truth, other.truth, Truth::Top)?,
            null: meet_flat(self.null, other.null, Nullness::Top)?,
            len: self.len.meet(&other.len),
        }
        .reduce()
    }

    /// Widening: intervals widen, everything else joins.
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        AbsVal {
            itv: self.itv.widen(&next.itv),
            truth: join_flat(self.truth, next.truth, Truth::Top),
            null: join_flat(self.null, next.null, Nullness::Top),
            len: self.len.widen(&next.len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_lattice_basics() {
        let a = Interval::exact(3);
        let b = Interval::exact(7);
        assert_eq!(
            a.join(&b),
            Interval {
                lo: Some(3),
                hi: Some(7)
            }
        );
        assert!(a.meet(&b).is_empty());
        assert_eq!(a.add(&b), Interval::exact(10));
        assert_eq!(a.sub(&b), Interval::exact(-4));
        assert_eq!(b.mul_const(-2), Interval::exact(-14));
        assert!(a.definitely_lt(&b));
        assert!(a.definitely_ne(&b));
    }

    #[test]
    fn widening_jumps_to_infinity() {
        let a = Interval {
            lo: Some(0),
            hi: Some(1),
        };
        let b = Interval {
            lo: Some(0),
            hi: Some(2),
        };
        let w = a.widen(&b);
        assert_eq!(
            w,
            Interval {
                lo: Some(0),
                hi: None
            }
        );
    }

    #[test]
    fn meet_of_contradictory_nullness_is_bottom() {
        let a = AbsVal::null();
        let b = AbsVal::non_null(Interval::TOP);
        assert_eq!(a.meet(&b), None);
    }
}
