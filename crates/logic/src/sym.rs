//! Interned symbols.
//!
//! Every identifier of the logic (variables, fields, class names,
//! uninterpreted function symbols) is a [`Sym`]: a `&'static str` drawn
//! from one process-wide table, so a symbol is `Copy`, and two symbols
//! are equal exactly when they point at the same table entry. The
//! solver clones and compares names on every step (substitution,
//! relevance, hash-consing, model lookup); with interning none of that
//! touches a reference count or the text.
//!
//! `Ord` and `Hash` stay by text, so a `BTreeSet<Sym>` iterates in the
//! same order as a set of strings (Fourier–Motzkin's variable numbering
//! follows it), and the persisted bundle fingerprints, which hash
//! symbols with `std`'s `DefaultHasher`, do not depend on which thread
//! interned a name first.
//!
//! The table only grows: a name's text is leaked once, on first use,
//! and shared by every later occurrence in the process. It holds the
//! distinct identifiers of the programs checked (a few hundred for the
//! whole corpus); [`Sym::table_size`] reports it. The table itself is a
//! `std` `HashSet` under a read-write lock, keyed by `std`'s hasher.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned symbol: a copyable, address-compared string.
///
/// ```
/// use rsc_logic::Sym;
/// let a = Sym::from("len");
/// let b = Sym::from(String::from("len"));
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "len");
/// ```
#[derive(Clone, Copy)]
pub struct Sym(&'static str);

/// The process-wide symbol table.
fn table() -> &'static RwLock<HashSet<&'static str>> {
    static TABLE: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

impl Sym {
    /// The symbol for `s`, interning it on first use.
    pub fn new(s: &str) -> Self {
        // A panic while holding the lock cannot leave the set invalid
        // (an insert either happened or did not), so a poisoned lock is
        // still safe to use.
        let found = table()
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(s)
            .copied();
        if let Some(interned) = found {
            return Sym(interned);
        }
        let mut set = table().write().unwrap_or_else(|e| e.into_inner());
        // Another thread may have interned `s` between the two locks.
        if let Some(&interned) = set.get(s) {
            return Sym(interned);
        }
        let interned: &'static str = Box::leak(s.into());
        set.insert(interned);
        Sym(interned)
    }

    /// Returns the underlying string.
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// The number of symbols interned so far in this process, and the
    /// bytes of text they hold.
    pub fn table_size() -> (usize, usize) {
        let set = table().read().unwrap_or_else(|e| e.into_inner());
        (set.len(), set.iter().map(|s| s.len()).sum())
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        // Interned: equal text is the same table entry.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Sym {}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // By text, like the `str` it borrows as (see the module docs).
        self.0.hash(state)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::new(&s)
    }
}

impl From<&Sym> for Sym {
    fn from(s: &Sym) -> Self {
        *s
    }
}

impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeSet, HashMap};

    #[test]
    fn sym_equality_and_hash() {
        let mut m: HashMap<Sym, i32> = HashMap::new();
        m.insert(Sym::from("x"), 1);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(Sym::from("x"), "x");
    }

    #[test]
    fn sym_display() {
        assert_eq!(Sym::from("len").to_string(), "len");
    }

    #[test]
    fn sym_ordering() {
        let mut v = [Sym::from("b"), Sym::from("a")];
        v.sort();
        assert_eq!(v[0], "a");
    }

    /// Threads racing to intern the same fresh names all get the same
    /// table entry for each.
    #[test]
    fn interned_on_several_threads_are_address_equal() {
        let names: Vec<String> = (0..64).map(|i| format!("sym-race-{i}")).collect();
        let barrier = std::sync::Barrier::new(4);
        let per_thread: Vec<Vec<Sym>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (names, barrier) = (&names, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        // Each thread walks the names from its own start.
                        let n = names.len();
                        let mut by_name: Vec<Option<Sym>> = vec![None; n];
                        for i in 0..n {
                            let j = (i + 17 * t) % n;
                            by_name[j] = Some(Sym::new(&names[j]));
                        }
                        by_name
                            .into_iter()
                            .map(|s| s.expect("every name interned"))
                            .collect::<Vec<Sym>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning thread"))
                .collect()
        });
        for syms in &per_thread[1..] {
            for (a, b) in per_thread[0].iter().zip(syms) {
                assert!(std::ptr::eq(a.as_str(), b.as_str()), "{a} interned twice");
            }
        }
        for (name, sym) in names.iter().zip(&per_thread[0]) {
            assert_eq!(sym.as_str(), name);
            assert!(std::ptr::eq(sym.as_str(), Sym::from(name.clone()).as_str()));
        }
    }

    /// `Ord`, `Hash`, `Display` and `Borrow<str>` lookups all see the
    /// text, whatever order the symbols were interned in.
    #[test]
    fn ord_hash_display_and_borrow_follow_the_text() {
        // Interned in reverse text order.
        let texts = ["sym-ord-c", "sym-ord-b", "sym-ord-a", "sym-ord-ab"];
        let syms: Vec<Sym> = texts.iter().map(|&t| Sym::from(t)).collect();
        let ordered: Vec<&str> = syms
            .iter()
            .copied()
            .collect::<BTreeSet<Sym>>()
            .iter()
            .map(Sym::as_str)
            .collect();
        let mut by_text = texts.to_vec();
        by_text.sort();
        assert_eq!(ordered, by_text);
        let digest = |x: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            x(&mut h);
            h.finish()
        };
        let mut set: HashMap<Sym, usize> = HashMap::new();
        for (i, (s, t)) in syms.iter().zip(texts).enumerate() {
            assert_eq!(digest(&|h| s.hash(h)), digest(&|h| t.hash(h)));
            assert_eq!(s.to_string(), t);
            assert_eq!(format!("{s:?}"), format!("`{t}`"));
            set.insert(*s, i);
        }
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(set.get(*t), Some(&i));
        }
        let mut fx: crate::FxHashSet<Sym> = Default::default();
        fx.extend(syms.iter().copied());
        assert!(texts.iter().all(|t| fx.contains(*t)));
    }

    #[test]
    fn sym_is_send_sync_and_copy() {
        fn assert_traits<T: Send + Sync + Copy + 'static>() {}
        assert_traits::<Sym>();
    }

    #[test]
    fn table_size_counts_interned_text() {
        let name = "sym-table-size-probe-name";
        Sym::new(name);
        let (count, bytes) = Sym::table_size();
        assert!(count >= 1 && bytes >= name.len());
    }
}
