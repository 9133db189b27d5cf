//! Experiment scale and dataset selection.

use einet_data::{Dataset, SynthDigits, SynthObjects, SynthObjects100};

/// Experiment scale: the size knobs shared by every experiment binary.
///
/// `quick` (the default, and what `--quick` forces) keeps a full
/// 18-pipeline sweep in the tens of minutes on one CPU core; `full` doubles
/// data and epochs for tighter numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Training samples per dataset.
    pub train_n: usize,
    /// Held-out samples per dataset (profiling + evaluation).
    pub test_n: usize,
    /// Multi-exit training epochs.
    pub epochs: usize,
    /// CS-Predictor training epochs.
    pub predictor_epochs: usize,
    /// Identifier used in artifact cache keys.
    pub id: &'static str,
}

impl Scale {
    /// The fast sweep used by default.
    pub fn quick() -> Self {
        Scale {
            train_n: 400,
            test_n: 200,
            epochs: 14,
            predictor_epochs: 40,
            id: "quick",
        }
    }

    /// The thorough sweep (`EINET_SCALE=full`).
    pub fn full() -> Self {
        Scale {
            train_n: 800,
            test_n: 400,
            epochs: 20,
            predictor_epochs: 60,
            id: "full",
        }
    }

    /// Resolves the scale from `EINET_SCALE` (values `quick`/`full`) and the
    /// process arguments (`--quick` / `--full` win over the environment).
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            return Scale::full();
        }
        if args.iter().any(|a| a == "--quick") {
            return Scale::quick();
        }
        match std::env::var("EINET_SCALE").as_deref() {
            Ok("full") => Scale::full(),
            _ => Scale::quick(),
        }
    }
}

/// The three dataset families of the evaluation (stand-ins for MNIST,
/// CIFAR-10, CIFAR-100; see `einet-data`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// MNIST-like grayscale digits.
    Digits,
    /// CIFAR-10-like RGB objects.
    Objects,
    /// CIFAR-100-like RGB objects, 100 classes.
    Objects100,
}

impl DatasetKind {
    /// All three datasets, easiest first.
    pub fn all() -> [DatasetKind; 3] {
        [
            DatasetKind::Digits,
            DatasetKind::Objects,
            DatasetKind::Objects100,
        ]
    }

    /// Short identifier used in cache keys and reports.
    pub fn id(&self) -> &'static str {
        match self {
            DatasetKind::Digits => "digits",
            DatasetKind::Objects => "objects",
            DatasetKind::Objects100 => "objects100",
        }
    }

    /// Generates the dataset at the given scale (seeded by family).
    pub fn generate(&self, scale: &Scale) -> Box<dyn Dataset> {
        let seed = 0xE1_9E7 + self.ordinal() as u64;
        match self {
            DatasetKind::Digits => {
                Box::new(SynthDigits::generate(scale.train_n, scale.test_n, seed))
            }
            DatasetKind::Objects => {
                Box::new(SynthObjects::generate(scale.train_n, scale.test_n, seed))
            }
            DatasetKind::Objects100 => Box::new(SynthObjects100::generate(
                // 100 classes need real per-class coverage.
                scale.train_n.max(1200),
                scale.test_n.max(300),
                seed,
            )),
        }
    }

    fn ordinal(&self) -> usize {
        match self {
            DatasetKind::Digits => 0,
            DatasetKind::Objects => 1,
            DatasetKind::Objects100 => 2,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.train_n < f.train_n);
        assert!(q.epochs < f.epochs);
        assert_ne!(q.id, f.id);
    }

    #[test]
    fn datasets_generate_with_right_classes() {
        let scale = Scale {
            train_n: 20,
            test_n: 10,
            ..Scale::quick()
        };
        assert_eq!(DatasetKind::Digits.generate(&scale).num_classes(), 10);
        assert_eq!(DatasetKind::Objects.generate(&scale).num_classes(), 10);
        assert_eq!(DatasetKind::Objects100.generate(&scale).num_classes(), 100);
    }

    #[test]
    fn ids_unique() {
        let mut ids: Vec<_> = DatasetKind::all().iter().map(|d| d.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }
}
