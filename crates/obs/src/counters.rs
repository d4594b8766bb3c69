//! [`counters!`](crate::counters!): one declaration per counter set.
//!
//! Every subsystem keeps monotone `u64` tallies and needs the same
//! pieces around them: a `Copy` snapshot struct, its `(name, value)`
//! list, a saturating difference, the Prometheus export and, where
//! threads bump the tallies, a shared atomic form. The macro generates
//! all of them from a single documented field list, so a counter is
//! added, exported and covered by the `OBSERVABILITY.md` tests with one
//! line.

/// Declares a counter set from one documented field list.
///
/// ```
/// gisolap_obs::counters! {
///     /// Counters of a toy pipeline.
///     pub struct ToyStats {
///         /// Batches accepted.
///         batches => add_batches,
///         /// Bytes written.
///         bytes,
///     }
///     metrics("toy_", "Toy pipeline counter.");
///     /// The shared form of [`ToyStats`], bumped by worker threads.
///     mirror pub struct ToyCounters;
/// }
///
/// let live = ToyCounters::default();
/// live.add_batches(2);
/// let snap = live.snapshot();
/// assert_eq!(snap.fields(), [("batches", 2), ("bytes", 0)]);
/// let mut registry = gisolap_obs::MetricsRegistry::new();
/// snap.fill_metrics(&mut registry);
/// assert!(registry.render_prometheus().contains("toy_batches_total 2\n"));
/// ```
///
/// The struct gets one `pub` `u64` field per entry, in list order, with
/// the entry's doc comment, plus:
///
/// * `fields()` — every counter as a `(name, value)` pair, in list
///   order;
/// * `delta(&earlier)` — the field-wise saturating difference.
///
/// The optional `metrics(prefix, help);` clause adds `fill_metrics`,
/// which publishes each field as the counter `<prefix><field>_total`
/// with the set's help text. Without it the set gets `field_help`
/// instead: each field's doc comment, for a hand-written exporter to
/// publish it with.
///
/// The optional `mirror` clause declares the shared form: one
/// `AtomicU64` per field, `snapshot()` and `reset()`, and for each entry
/// written `field => bump` a `bump(n)` method that is a single `Relaxed`
/// `fetch_add`. Relaxed suffices: the tallies are only ever read
/// through `snapshot`, never used for synchronization. Entries without
/// a bump name are bumped by hand-written methods in the declaring
/// module, which sees the mirror's private fields.
#[macro_export]
macro_rules! counters {
    (
        $(#[doc = $doc:literal])*
        pub struct $snap:ident {
            $( $(#[doc = $fdoc:literal])* $field:ident $(=> $bump:ident)? ),* $(,)?
        }
        $( metrics($prefix:literal, $help:literal); )?
        $( $(#[doc = $mdoc:literal])* mirror $mvis:vis struct $mirror:ident; )?
    ) => {
        $(#[doc = $doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[doc = $fdoc])* pub $field: u64, )*
        }

        impl $snap {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order — what metrics, span attribution and the
            /// `OBSERVABILITY.md` coverage tests iterate.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$((stringify!($field), self.$field)),*]
            }

            /// The field-wise difference `self − earlier`, saturating so
            /// that a reset between the two snapshots yields zeros
            /// instead of wrapping.
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                }
            }
        }

        $crate::counters!(@metrics $snap [$($prefix, $help)?] $( [$($fdoc)*] $field )*);
        $crate::counters!(
            @mirror $snap [$( [$($mdoc)*] $mvis $mirror )?] $( $field [$($fdoc)*] $($bump)?; )*
        );
    };

    (@metrics $snap:ident [] $( [$($fdoc:literal)*] $field:ident )*) => {
        impl $snap {
            /// The help text a field is published with: its doc comment.
            pub fn field_help(field: &str) -> Option<&'static str> {
                match field {
                    $( stringify!($field) => Some(concat!($($fdoc),*).trim_start()), )*
                    _ => None,
                }
            }
        }
    };

    (@metrics $snap:ident [$prefix:literal, $help:literal] $( [$($fdoc:literal)*] $field:ident )*) => {
        impl $snap {
            #[doc = concat!(
                "Publishes every counter into `registry` as `", $prefix, "<field>_total`."
            )]
            pub fn fill_metrics(&self, registry: &mut $crate::MetricsRegistry) {
                $(
                    registry.set_counter_u64(
                        concat!($prefix, stringify!($field), "_total"),
                        $help,
                        &[],
                        self.$field,
                    );
                )*
            }
        }
    };

    (@mirror $snap:ident [] $($fields:tt)*) => {};

    (
        @mirror $snap:ident [ [$($mdoc:literal)*] $mvis:vis $mirror:ident ]
        $( $field:ident [$($fdoc:literal)*] $($bump:ident)?; )*
    ) => {
        $(#[doc = $mdoc])*
        #[derive(Debug, Default)]
        $mvis struct $mirror {
            $( $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $mirror {
            $( $crate::counters!(@bump $field [$($fdoc)*] $($bump)?); )*

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }

            /// Zeroes every counter (e.g. between benchmark phases).
            #[allow(dead_code)] // a private mirror may never be reset
            pub fn reset(&self) {
                $( self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };

    (@bump $field:ident [$($fdoc:literal)*]) => {};

    (@bump $field:ident [$($fdoc:literal)*] $bump:ident) => {
        $(#[doc = $fdoc])*
        #[inline]
        pub fn $bump(&self, n: u64) {
            self.$field.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    crate::counters! {
        /// Set with a mirror and doc-comment help.
        pub struct Plain {
            /// First.
            alpha => add_alpha,
            /// Second, documented
            /// over two lines.
            beta,
        }
        mirror struct PlainCounters;
    }

    crate::counters! {
        /// Exported set.
        pub struct Exported {
            /// One.
            one,
            /// Two.
            two,
        }
        metrics("t_", "Test counter.");
    }

    #[test]
    fn fields_follow_the_list_and_delta_saturates() {
        let later = Plain { alpha: 5, beta: 1 };
        let earlier = Plain { alpha: 2, beta: 4 };
        assert_eq!(later.fields(), [("alpha", 5), ("beta", 1)]);
        assert_eq!(later.delta(&earlier), Plain { alpha: 3, beta: 0 });
    }

    #[test]
    fn mirror_bumps_snapshots_and_resets() {
        let live = PlainCounters::default();
        live.add_alpha(3);
        live.add_alpha(4);
        live.beta.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(live.snapshot(), Plain { alpha: 7, beta: 1 });
        live.reset();
        assert_eq!(live.snapshot(), Plain::default());
    }

    #[test]
    fn help_comes_from_the_docs_or_the_set() {
        assert_eq!(Plain::field_help("alpha"), Some("First."));
        assert_eq!(
            Plain::field_help("beta"),
            Some("Second, documented over two lines.")
        );
        assert_eq!(Plain::field_help("gamma"), None);

        let exported = Exported { one: 1, two: 2 }.delta(&Exported::default());
        assert_eq!(exported.fields(), [("one", 1), ("two", 2)]);
        let mut registry = MetricsRegistry::new();
        exported.fill_metrics(&mut registry);
        assert_eq!(
            registry.render_prometheus(),
            "# HELP t_one_total Test counter.\n\
             # TYPE t_one_total counter\n\
             t_one_total 1\n\
             # HELP t_two_total Test counter.\n\
             # TYPE t_two_total counter\n\
             t_two_total 2\n"
        );
    }
}
