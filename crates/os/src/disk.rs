//! The simulated disk: MBR, partitions, and raw sectors.
//!
//! The Shamoon wiper's signature move — overwriting the Master Boot Record
//! through a legitimately signed third-party driver — needs an explicit disk
//! model: user-mode code can only touch files; raw sector writes require a
//! kernel capability (see [`crate::host::Host::write_raw_sectors`]).

use std::collections::BTreeMap;

/// Size of one sector in bytes.
pub const SECTOR_SIZE: usize = 512;
/// The two-byte boot signature at the end of a valid MBR.
pub const BOOT_MAGIC: [u8; 2] = [0x55, 0xAA];

/// A partition table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First sector (LBA).
    pub start_sector: u64,
    /// Length in sectors.
    pub sectors: u64,
    /// Whether this is the active (boot) partition.
    pub active: bool,
}

/// A disk: sparse sector store plus a structured partition view.
///
/// # Examples
///
/// ```
/// use malsim_os::disk::Disk;
///
/// let disk = Disk::with_standard_layout(1 << 20);
/// assert!(disk.is_bootable());
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    total_sectors: u64,
    sectors: BTreeMap<u64, Vec<u8>>,
    partitions: Vec<Partition>,
}

impl Disk {
    /// Creates a blank disk of `total_sectors` sectors.
    pub fn new(total_sectors: u64) -> Self {
        Disk { total_sectors, sectors: BTreeMap::new(), partitions: Vec::new() }
    }

    /// Creates a disk with a valid MBR and one active partition covering
    /// almost the whole disk.
    pub fn with_standard_layout(total_sectors: u64) -> Self {
        let mut disk = Disk::new(total_sectors);
        let mut mbr = vec![0u8; SECTOR_SIZE];
        // Minimal boot code stub + signature.
        mbr[0] = 0xEB; // jmp — "there is boot code here"
        mbr[SECTOR_SIZE - 2] = BOOT_MAGIC[0];
        mbr[SECTOR_SIZE - 1] = BOOT_MAGIC[1];
        disk.sectors.insert(0, mbr);
        disk.partitions = vec![Partition {
            start_sector: 2_048,
            sectors: total_sectors.saturating_sub(2_048),
            active: true,
        }];
        disk
    }

    /// Number of sectors.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// The partition table.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Reads a sector. Unwritten sectors read as zeroes.
    pub fn read_sector(&self, lba: u64) -> Vec<u8> {
        self.sectors.get(&lba).cloned().unwrap_or_else(|| vec![0u8; SECTOR_SIZE])
    }

    /// Writes a sector (truncated/zero-padded to [`SECTOR_SIZE`]).
    ///
    /// Out-of-range writes are ignored, mirroring hardware that drops
    /// commands beyond the end of the medium.
    pub fn write_sector(&mut self, lba: u64, data: &[u8]) {
        if lba >= self.total_sectors {
            return;
        }
        let sector = self.sectors.entry(lba).or_insert_with(|| vec![0u8; SECTOR_SIZE]);
        let n = data.len().min(SECTOR_SIZE);
        sector[..n].copy_from_slice(&data[..n]);
        sector[n..].fill(0);
    }

    /// The MBR (sector 0).
    pub fn mbr(&self) -> Vec<u8> {
        self.read_sector(0)
    }

    /// Whether the MBR carries the boot signature — the property Shamoon
    /// destroys to brick the machine.
    pub fn is_bootable(&self) -> bool {
        self.sectors.get(&0).is_some_and(|mbr| mbr[SECTOR_SIZE - 2..] == BOOT_MAGIC)
    }

    /// The active partition, if any.
    pub fn active_partition(&self) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.active)
    }

    /// Fills every written sector inside the active partition with
    /// `filler`, then writes the partition's first sector (its filesystem
    /// metadata) with it too. Returns how many written sectors were filled,
    /// but at least 1; 0 when there is no active partition.
    pub fn wipe_active_partition(&mut self, filler: u8) -> u64 {
        let Some(&Partition { start_sector, sectors, .. }) = self.active_partition() else { return 0 };
        let mut wiped = 0;
        for (_, sector) in self.sectors.range_mut(start_sector..start_sector + sectors) {
            sector.fill(filler);
            wiped += 1;
        }
        self.write_sector(start_sector, &[filler; SECTOR_SIZE]);
        wiped.max(1)
    }

    /// Number of sectors that have ever been written.
    pub fn written_sectors(&self) -> usize {
        self.sectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_disk_not_bootable() {
        assert!(!Disk::new(100).is_bootable());
    }

    #[test]
    fn standard_layout_boots() {
        let d = Disk::with_standard_layout(10_000);
        assert!(d.is_bootable());
        assert_eq!(d.partitions().len(), 1);
        assert!(d.active_partition().unwrap().active);
    }

    #[test]
    fn sector_roundtrip_and_zero_fill() {
        let mut d = Disk::new(100);
        d.write_sector(5, &[1, 2, 3]);
        let s = d.read_sector(5);
        assert_eq!(&s[..3], &[1, 2, 3]);
        assert!(s[3..].iter().all(|&b| b == 0));
        d.write_sector(5, &[9]);
        assert_eq!(d.read_sector(5)[..3], [9, 0, 0], "a rewrite zero-pads over the old bytes");
        assert_eq!(d.read_sector(6), vec![0u8; SECTOR_SIZE]);
    }

    #[test]
    fn out_of_range_write_ignored() {
        let mut d = Disk::new(10);
        d.write_sector(50, &[1]);
        assert_eq!(d.written_sectors(), 0);
    }

    #[test]
    fn overwriting_mbr_bricks() {
        let mut d = Disk::with_standard_layout(10_000);
        assert!(d.is_bootable());
        d.write_sector(0, &[0u8; SECTOR_SIZE]);
        assert!(!d.is_bootable());
    }

    #[test]
    fn wipe_active_partition_clobbers_data() {
        let mut d = Disk::with_standard_layout(10_000);
        d.write_sector(3_000, b"user data here");
        d.write_sector(4_000, b"more user data");
        let wiped = d.wipe_active_partition(0x00);
        assert!(wiped >= 2);
        assert!(d.read_sector(3_000).iter().all(|&b| b == 0));
        // MBR untouched by a partition wipe.
        assert!(d.is_bootable());
    }
}
