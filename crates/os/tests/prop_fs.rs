//! Property tests for the simulated file system and path model.

use malsim_kernel::time::SimTime;
use malsim_os::fs::{FileData, Vfs};
use malsim_os::path::WinPath;
use proptest::prelude::*;

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_]{1,8}(\\.[a-z]{1,4})?", 1..5)
        .prop_map(|parts| format!(r"C:\{}", parts.join(r"\")))
}

proptest! {
    #[test]
    fn path_normalization_is_idempotent(raw in "[a-zA-Z0-9_\\\\./]{1,60}") {
        let once = WinPath::new(&raw);
        let twice = WinPath::new(once.as_str());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn path_case_insensitive_equality(p in path_strategy()) {
        prop_assert_eq!(WinPath::new(&p), WinPath::new(p.to_uppercase()));
        prop_assert_eq!(WinPath::new(&p), WinPath::new(p.to_lowercase()));
    }

    #[test]
    fn join_then_parent_roundtrips(p in path_strategy(), child in "[a-z0-9]{1,8}") {
        let base = WinPath::new(&p);
        let joined = base.join(&child);
        prop_assert_eq!(joined.parent().unwrap(), base.clone());
        prop_assert_eq!(joined.file_name().unwrap(), child.as_str());
        prop_assert!(joined.starts_with(&base));
    }

    #[test]
    fn vfs_write_read_consistency(
        ops in proptest::collection::vec(
            (path_strategy(), proptest::collection::vec(any::<u8>(), 0..64), any::<bool>()),
            1..40,
        )
    ) {
        let mut fs = Vfs::new();
        let mut model: std::collections::HashMap<String, Vec<u8>> = Default::default();
        let mut clock = 0u64;
        for (path, bytes, delete) in ops {
            clock += 1;
            let p = WinPath::new(&path);
            let key = p.key().to_owned();
            if delete && model.contains_key(&key) {
                fs.delete(&p).unwrap();
                model.remove(&key);
            } else {
                fs.write(&p, FileData::Bytes(bytes.clone().into()), SimTime::from_millis(clock)).unwrap();
                model.insert(key, bytes);
            }
        }
        prop_assert_eq!(fs.len(), model.len());
        for (key, bytes) in &model {
            let node = fs.read(&WinPath::new(key)).unwrap();
            prop_assert_eq!(&node.data, &FileData::Bytes(bytes.clone().into()));
        }
        let total: usize = model.values().map(Vec::len).sum();
        prop_assert_eq!(fs.total_size(), total);
    }

    #[test]
    fn listing_respects_hidden_partition(
        files in proptest::collection::btree_map(path_strategy(), any::<bool>(), 1..30)
    ) {
        let mut fs = Vfs::new();
        for (path, hidden) in &files {
            let p = WinPath::new(path);
            fs.write(&p, FileData::Bytes(vec![1].into()), SimTime::EPOCH).unwrap();
            fs.set_hidden(&p, *hidden).unwrap();
        }
        let root = WinPath::new("C:");
        let visible = fs.list(&root, false).len();
        let all = fs.list(&root, true).len();
        prop_assert_eq!(all, fs.len());
        let hidden_count = fs.iter().filter(|(_, n)| n.hidden).count();
        prop_assert_eq!(visible + hidden_count, all);
    }

    #[test]
    fn extension_search_agrees_with_path_predicate(paths in proptest::collection::vec(path_strategy(), 1..30)) {
        let mut fs = Vfs::new();
        for p in &paths {
            fs.write(&WinPath::new(p), FileData::Bytes(Vec::new().into()), SimTime::EPOCH).unwrap();
        }
        let hits = fs.find_by_extension(&["docx", "txt"], true).len();
        let expected = fs
            .iter()
            .filter(|(p, _)| p.has_extension("docx") || p.has_extension("txt"))
            .count();
        prop_assert_eq!(hits, expected);
    }
}
