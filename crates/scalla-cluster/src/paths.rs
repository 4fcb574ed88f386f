//! The export-prefix table: path → `V_m` (§III-A4).
//!
//! At login a server "declares the paths it exports". Paths at the manager
//! and supervisor level are "treated as simple prefixes to a file name;
//! essentially providing a flat namespace" (§II-B4). A server is eligible
//! for a file when it exports some prefix of the file's path; `V_m` for a
//! path is the union of all matching prefixes' server sets. Registration
//! and deregistration are O(#prefixes), never O(#files) — the property §V
//! contrasts with GFS-style manifest uploads.

use scalla_util::{ServerId, ServerSet};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Prefix → eligible-server table.
///
/// ```
/// use scalla_cluster::ExportTable;
/// use scalla_util::ServerSet;
///
/// let mut t = ExportTable::new();
/// t.add_export(0, "/atlas");
/// t.add_export(1, "/atlas/data");
/// // V_m for a path is the union over matching component prefixes.
/// assert_eq!(t.vm_for("/atlas/data/run1/f.root"), ServerSet(0b11));
/// assert_eq!(t.vm_for("/atlas/mc/f.root"), ServerSet(0b01));
/// assert_eq!(t.vm_for("/cms/f.root"), ServerSet::EMPTY);
/// ```
#[derive(Default, Debug, Clone)]
pub struct ExportTable {
    prefixes: HashMap<String, ServerSet, BuildHasherDefault<PrefixHasher>>,
}

/// The table's hash: CRC-32, the cache's own key hash, spread over 64 bits
/// by the Fibonacci multiplier so that the map's control bytes (its top
/// bits) differ too. It has no per-process key, so a look-up costs a few
/// table steps per component prefix rather than a SipHash pass. Crafted
/// collisions need control of the keys, and only logins write them (at
/// most 64 members' export lists); a client's path is only looked up, so
/// nothing a client sends can grow the table.
#[derive(Default)]
struct PrefixHasher(u32);

impl Hasher for PrefixHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = scalla_util::crc32::update(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        u64::from(self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Normalizes a prefix: guarantees a leading `/` and strips a trailing one
/// (except for the root itself).
fn normalize(prefix: &str) -> String {
    let mut p = String::with_capacity(prefix.len() + 1);
    if !prefix.starts_with('/') {
        p.push('/');
    }
    p.push_str(prefix);
    while p.len() > 1 && p.ends_with('/') {
        p.pop();
    }
    p
}

impl ExportTable {
    /// Creates an empty table.
    pub fn new() -> ExportTable {
        ExportTable::default()
    }

    /// Registers `server` as exporting `prefix`.
    pub fn add_export(&mut self, server: ServerId, prefix: &str) {
        self.prefixes.entry(normalize(prefix)).or_default().insert(server);
    }

    /// Registers a server's full export list (login).
    pub fn login(&mut self, server: ServerId, prefixes: &[String]) {
        for p in prefixes {
            self.add_export(server, p);
        }
    }

    /// Removes `server` from every prefix (drop, §III-A4 case 2). Empty
    /// prefixes are discarded.
    pub fn remove_server(&mut self, server: ServerId) {
        self.prefixes.retain(|_, set| {
            set.remove(server);
            !set.is_empty()
        });
    }

    /// Computes `V_m` for a file path: the union of server sets over every
    /// registered prefix that is a path-component prefix of `path`.
    ///
    /// This walks the path's components (O(path depth), independent of the
    /// number of files or prefixes), preserving the paper's "extremely
    /// light" lookup property. A path with its leading `/`, as clients send
    /// them, is walked where it lies and the look-up allocates nothing: a
    /// trailing `/` needs no stripping, since the boundaries it adds end in
    /// `/` and no registered prefix but the root does.
    pub fn vm_for(&self, path: &str) -> ServerSet {
        let path =
            if path.starts_with('/') { Cow::Borrowed(path) } else { Cow::Owned(normalize(path)) };
        let mut vm = ServerSet::EMPTY;
        if let Some(&set) = self.prefixes.get("/") {
            vm |= set;
        }
        // Check every component boundary: /a, /a/b, /a/b/c ...
        let bytes = path.as_bytes();
        for i in 1..=bytes.len() {
            if i == bytes.len() || bytes[i] == b'/' {
                if let Some(&set) = self.prefixes.get(&path[..i]) {
                    vm |= set;
                }
            }
        }
        vm
    }

    /// All distinct prefixes currently exported (diagnostics).
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    /// The set of servers exporting at least one prefix.
    pub fn all_servers(&self) -> ServerSet {
        self.prefixes.values().fold(ServerSet::EMPTY, |acc, &s| acc | s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: normalise the path, then test every registered prefix
    /// against it as a whole-component prefix.
    fn vm_by_scan(t: &ExportTable, path: &str) -> ServerSet {
        let path = normalize(path);
        let matches = |p: &str| p == "/" || path == p || path.starts_with(&format!("{p}/"));
        t.prefixes.iter().filter(|(p, _)| matches(p)).fold(ServerSet::EMPTY, |vm, (_, &s)| vm | s)
    }

    fn messy_path() -> impl Strategy<Value = String> {
        prop_oneof![Just("/".to_string()), Just(String::new()), "[ab/]{0,9}"]
    }

    proptest! {
        #[test]
        fn vm_for_matches_normalise_then_scan(
            exports in proptest::collection::vec((0u8..64, messy_path()), 0..12),
            paths in proptest::collection::vec(messy_path(), 1..16),
        ) {
            let mut t = ExportTable::new();
            for (server, prefix) in &exports {
                t.add_export(*server, prefix);
            }
            for path in &paths {
                prop_assert_eq!(t.vm_for(path), vm_by_scan(&t, path), "path {:?}", path);
            }
        }
    }

    #[test]
    fn prefix_matching_by_component() {
        let mut t = ExportTable::new();
        t.add_export(0, "/atlas");
        t.add_export(1, "/atlas/data");
        t.add_export(2, "/cms");
        assert_eq!(t.vm_for("/atlas/data/run1/f.root"), ServerSet(0b011));
        assert_eq!(t.vm_for("/atlas/mc/f.root"), ServerSet(0b001));
        assert_eq!(t.vm_for("/cms/f.root"), ServerSet(0b100));
        assert_eq!(t.vm_for("/alice/f.root"), ServerSet::EMPTY);
        // "/atlasx" must NOT match the "/atlas" prefix: component boundary.
        assert_eq!(t.vm_for("/atlasx/f.root"), ServerSet::EMPTY);
    }

    #[test]
    fn root_export_matches_everything() {
        let mut t = ExportTable::new();
        t.add_export(5, "/");
        assert_eq!(t.vm_for("/any/thing"), ServerSet::single(5));
        assert_eq!(t.vm_for("/"), ServerSet::single(5));
    }

    #[test]
    fn normalization() {
        let mut t = ExportTable::new();
        t.add_export(1, "atlas/");
        assert_eq!(t.vm_for("/atlas/f"), ServerSet::single(1));
        t.add_export(2, "/atlas");
        assert_eq!(t.prefix_count(), 1, "equivalent prefixes must merge");
    }

    #[test]
    fn remove_server_clears_all_prefixes() {
        let mut t = ExportTable::new();
        t.login(3, &["/a".into(), "/b".into()]);
        t.login(4, &["/a".into()]);
        t.remove_server(3);
        assert_eq!(t.vm_for("/a/f"), ServerSet::single(4));
        assert_eq!(t.vm_for("/b/f"), ServerSet::EMPTY);
        assert_eq!(t.prefix_count(), 1, "empty prefixes are discarded");
        assert_eq!(t.all_servers(), ServerSet::single(4));
    }

    #[test]
    fn registration_cost_independent_of_file_count() {
        // The structural point of §V: joining costs O(#prefixes), so a
        // server "hosting" a million files registers with two entries.
        let mut t = ExportTable::new();
        t.login(0, &["/store/data".into(), "/store/mc".into()]);
        assert_eq!(t.prefix_count(), 2);
    }
}
