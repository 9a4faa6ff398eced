//! SHA-256 digests of workload outputs, and the committed goldens they are
//! checked against (`perf/golden/<workload>.txt`).

use std::collections::BTreeMap;

pub use sdnav_chaos::sha256_hex;

/// A running digest over a sequence of outputs. Each link hashes the
/// previous link's hex digest followed by the next output, so the current
/// value pins every output so far and their order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain(String);

impl Chain {
    pub fn new() -> Self {
        Chain(sha256_hex(b""))
    }

    pub fn push(&mut self, output: &[u8]) {
        let mut link = Vec::with_capacity(self.0.len() + output.len());
        link.extend_from_slice(self.0.as_bytes());
        link.extend_from_slice(output);
        self.0 = sha256_hex(&link);
    }

    pub fn hex(&self) -> &str {
        &self.0
    }
}

/// Committed digests of one workload at one seed, keyed by output index
/// (what an index means is up to the workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden(BTreeMap<usize, String>);

impl Golden {
    /// Parses `seed index sha256` lines (blank lines and `#` comments are
    /// skipped), keeping those for `seed`.
    pub fn parse(text: &str, seed: u64) -> Result<Golden, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden line {}: expected `seed index sha256`", n + 1);
            let mut fields = line.split_whitespace();
            let (Some(s), Some(i), Some(hex), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad());
            };
            let s: u64 = s.parse().map_err(|_| bad())?;
            let i: usize = i.parse().map_err(|_| bad())?;
            if s == seed {
                map.insert(i, hex.to_owned());
            }
        }
        Ok(Golden(map))
    }

    /// `Some(matches)` when a digest is committed for `index`.
    pub fn check(&self, index: usize, hex: &str) -> Option<bool> {
        self.0.get(&index).map(|want| want == hex)
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_links_depend_on_every_output_and_their_order() {
        let mut ab = Chain::new();
        ab.push(b"a");
        ab.push(b"b");
        let mut ba = Chain::new();
        ba.push(b"b");
        ba.push(b"a");
        assert_ne!(ab, ba);

        let mut again = Chain::new();
        again.push(b"a");
        let after_a = again.clone();
        again.push(b"b");
        assert_eq!(again, ab);

        // Each link is sha256(previous hex ++ output).
        let mut manual = sha256_hex(b"").into_bytes();
        manual.extend_from_slice(b"a");
        assert_eq!(after_a.hex(), sha256_hex(&manual));
        assert_eq!(
            Chain::new().hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn golden_keeps_only_the_requested_seed() {
        let text = "# seed index sha256\n7 0 aa\n1000 0 bb\n\n7 3 cc\n";
        let g = Golden::parse(text, 7).unwrap();
        assert_eq!(g.check(0, "aa"), Some(true));
        assert_eq!(g.check(0, "bb"), Some(false));
        assert_eq!(g.check(3, "cc"), Some(true));
        assert_eq!(g.check(1, "aa"), None);
        assert!(Golden::parse(text, 8).unwrap().is_empty());
        assert!(Golden::parse("7 zero aa", 7).is_err());
        assert!(Golden::parse("7 0 aa extra", 7).is_err());
    }
}
