//! Diffing memory layouts between snapshot and post-activation state
//! (§4.4: "identifies all changes to the memory layout by consulting
//! /proc/pid/maps and pagemap (e.g. grown, shrunk, merged, split,
//! deleted, new memory regions)").
//!
//! The diff is one merge over the two address-ordered VMA lists (both
//! borrowed: the restorer diffs the live map in place) and is compiled
//! into the syscall plan the restorer injects via ptrace.

use gh_mem::{PageRange, Perms, Vma, VmaKind, Vpn};
use gh_proc::Syscall;

/// A region to re-create, with its snapshot-time attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemapRegion {
    /// Pages to map.
    pub range: PageRange,
    /// Snapshot-time permissions.
    pub perms: Perms,
    /// Snapshot-time backing.
    pub kind: VmaKind,
}

/// The layout delta between snapshot and current state.
#[derive(Clone, Debug, Default)]
pub struct LayoutDiff {
    /// Regions mapped now but absent from the snapshot → `munmap`.
    pub to_munmap: Vec<PageRange>,
    /// Regions in the snapshot but unmapped now → `mmap(MAP_FIXED)`.
    pub to_remap: Vec<RemapRegion>,
    /// Regions whose permissions changed → `mprotect` back.
    pub to_mprotect: Vec<(PageRange, Perms)>,
    /// `(current, snapshot)` program break, when they differ → `brk`.
    pub brk: Option<(Vpn, Vpn)>,
}

impl LayoutDiff {
    /// Computes the delta from `current` back to the snapshot layout.
    ///
    /// Both lists must be address-ordered and non-overlapping, as
    /// `/proc/pid/maps` is; heap VMAs are skipped (`brk` owns the heap).
    /// One merge walks both lists in step, cutting the address space at
    /// every VMA boundary into intervals of constant attributes on each
    /// side, so the cost is `O(VMAs)` with no allocation beyond the delta
    /// itself.
    pub fn compute<'s, 'c>(
        snap_vmas: impl IntoIterator<Item = &'s Vma>,
        snap_brk: Vpn,
        cur_vmas: impl IntoIterator<Item = &'c Vma>,
        cur_brk: Vpn,
    ) -> LayoutDiff {
        let not_heap = |v: &&Vma| !matches!(v.kind, VmaKind::Heap);
        let mut snap = snap_vmas.into_iter().filter(not_heap).peekable();
        let mut cur = cur_vmas.into_iter().filter(not_heap).peekable();
        let mut diff = LayoutDiff::default();
        // Everything below `pos` is diffed.
        let mut pos = 0u64;
        loop {
            while snap.next_if(|v| v.range.end.0 <= pos).is_some() {}
            while cur.next_if(|v| v.range.end.0 <= pos).is_some() {}
            let (s, c) = (snap.peek().copied(), cur.peek().copied());
            // The next interval starts at `pos` or at the first segment
            // start above it; a head covers it iff it starts by then.
            let start = match (s, c) {
                (None, None) => break,
                (Some(v), None) | (None, Some(v)) => v.range.start.0,
                (Some(a), Some(b)) => a.range.start.0.min(b.range.start.0),
            }
            .max(pos);
            let s_in = s.filter(|v| v.range.start.0 <= start);
            let c_in = c.filter(|v| v.range.start.0 <= start);
            // It ends at the first boundary above `start`: a covering
            // head's end or a waiting head's start.
            let edge = |v: Option<&Vma>| {
                v.map_or(u64::MAX, |v| {
                    if v.range.start.0 <= start {
                        v.range.end.0
                    } else {
                        v.range.start.0
                    }
                })
            };
            let end = edge(s).min(edge(c));
            let range = PageRange::new(Vpn(start), Vpn(end));
            match (s_in, c_in) {
                (None, None) => unreachable!("a head covers the interval start"),
                (None, Some(_)) => push_coalesced(&mut diff.to_munmap, range),
                (Some(sv), None) => push_remap(&mut diff.to_remap, range, sv.perms, &sv.kind),
                (Some(sv), Some(cv)) => {
                    if sv.perms != cv.perms {
                        push_protect(&mut diff.to_mprotect, range, sv.perms);
                    }
                }
            }
            pos = end;
        }

        if snap_brk != cur_brk {
            diff.brk = Some((cur_brk, snap_brk));
        }
        diff
    }

    /// True when the layout is unchanged.
    pub fn is_empty(&self) -> bool {
        self.to_munmap.is_empty()
            && self.to_remap.is_empty()
            && self.to_mprotect.is_empty()
            && self.brk.is_none()
    }

    /// Compiles the delta into the syscall injection plan, in the §4.4
    /// order: restore `brk`, remove added regions, remap removed regions,
    /// restore protections.
    pub fn plan(&self) -> Vec<Syscall> {
        let mut plan = Vec::new();
        if let Some((_cur, snap)) = self.brk {
            plan.push(Syscall::Brk(snap));
        }
        for r in &self.to_munmap {
            plan.push(Syscall::Munmap(*r));
        }
        for r in &self.to_remap {
            let file = match &r.kind {
                VmaKind::File(name) => Some(name.clone()),
                _ => None,
            };
            plan.push(Syscall::MmapFixed {
                range: r.range,
                perms: r.perms,
                file,
            });
        }
        for (range, perms) in &self.to_mprotect {
            plan.push(Syscall::Mprotect(*range, *perms));
        }
        plan
    }

    /// Total number of syscalls the plan will inject.
    pub fn syscall_count(&self) -> usize {
        self.to_munmap.len()
            + self.to_remap.len()
            + self.to_mprotect.len()
            + usize::from(self.brk.is_some())
    }
}

fn push_coalesced(v: &mut Vec<PageRange>, r: PageRange) {
    if let Some(last) = v.last_mut() {
        if last.end == r.start {
            last.end = r.end;
            return;
        }
    }
    v.push(r);
}

fn push_remap(v: &mut Vec<RemapRegion>, range: PageRange, perms: Perms, kind: &VmaKind) {
    if let Some(last) = v.last_mut() {
        if last.range.end == range.start && last.perms == perms && last.kind == *kind {
            last.range.end = range.end;
            return;
        }
    }
    v.push(RemapRegion {
        range,
        perms,
        kind: kind.clone(),
    });
}

fn push_protect(v: &mut Vec<(PageRange, Perms)>, r: PageRange, p: Perms) {
    if let Some((last, lp)) = v.last_mut() {
        if last.end == r.start && *lp == p {
            last.end = r.end;
            return;
        }
    }
    v.push((r, p));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma(start: u64, len: u64, perms: Perms, kind: VmaKind) -> Vma {
        Vma::new(PageRange::at(Vpn(start), len), perms, kind)
    }

    fn anon(start: u64, len: u64) -> Vma {
        vma(start, len, Perms::RW, VmaKind::Anon)
    }

    #[test]
    fn identical_layouts_diff_empty() {
        let vs = vec![
            anon(100, 10),
            vma(200, 5, Perms::RX, VmaKind::File("x".into())),
        ];
        let d = LayoutDiff::compute(&vs, Vpn(50), &vs, Vpn(50));
        assert!(d.is_empty());
        assert!(d.plan().is_empty());
        assert_eq!(d.syscall_count(), 0);
    }

    #[test]
    fn added_region_is_munmapped() {
        let snap = vec![anon(100, 10)];
        let cur = vec![anon(100, 10), anon(300, 4)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_munmap, vec![PageRange::at(Vpn(300), 4)]);
        assert!(d.to_remap.is_empty());
        assert_eq!(d.plan(), vec![Syscall::Munmap(PageRange::at(Vpn(300), 4))]);
    }

    #[test]
    fn removed_region_is_remapped_with_attrs() {
        let snap = vec![
            anon(100, 10),
            vma(200, 6, Perms::RX, VmaKind::File("lib".into())),
        ];
        let cur = vec![anon(100, 10)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_remap.len(), 1);
        let r = &d.to_remap[0];
        assert_eq!(r.range, PageRange::at(Vpn(200), 6));
        assert_eq!(r.perms, Perms::RX);
        assert_eq!(r.kind, VmaKind::File("lib".into()));
        match &d.plan()[0] {
            Syscall::MmapFixed { range, perms, file } => {
                assert_eq!(*range, PageRange::at(Vpn(200), 6));
                assert_eq!(*perms, Perms::RX);
                assert_eq!(file.as_deref(), Some("lib"));
            }
            other => panic!("expected mmap, got {other:?}"),
        }
    }

    #[test]
    fn grown_region_unmaps_only_the_growth() {
        let snap = vec![anon(100, 10)];
        let cur = vec![anon(100, 16)]; // grew by 6 pages
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_munmap, vec![PageRange::at(Vpn(110), 6)]);
        assert!(d.to_remap.is_empty());
    }

    #[test]
    fn shrunk_region_remaps_only_the_loss() {
        let snap = vec![anon(100, 16)];
        let cur = vec![anon(100, 10)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_remap.len(), 1);
        assert_eq!(d.to_remap[0].range, PageRange::at(Vpn(110), 6));
    }

    #[test]
    fn split_region_remaps_the_hole() {
        let snap = vec![anon(100, 10)];
        // Middle two pages were munmapped by the function.
        let cur = vec![anon(100, 4), anon(106, 4)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_remap.len(), 1);
        assert_eq!(d.to_remap[0].range, PageRange::at(Vpn(104), 2));
        assert!(d.to_munmap.is_empty());
    }

    #[test]
    fn merged_regions_are_equivalent_not_diffed() {
        // Two adjacent anon VMAs merging into one is not a semantic change.
        let snap = vec![anon(100, 4), anon(104, 4)];
        let cur = vec![anon(100, 8)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn perm_change_restores_protection() {
        let snap = vec![anon(100, 8)];
        let mut cur_vma = anon(100, 8);
        cur_vma.perms = Perms::R;
        let d = LayoutDiff::compute(&snap, Vpn(50), &[cur_vma], Vpn(50));
        assert_eq!(d.to_mprotect, vec![(PageRange::at(Vpn(100), 8), Perms::RW)]);
        assert_eq!(
            d.plan(),
            vec![Syscall::Mprotect(PageRange::at(Vpn(100), 8), Perms::RW)]
        );
    }

    #[test]
    fn partial_perm_change_is_ranged() {
        let snap = vec![anon(100, 8)];
        let cur = vec![
            anon(100, 2),
            vma(102, 3, Perms::R, VmaKind::Anon),
            anon(105, 3),
        ];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_mprotect, vec![(PageRange::at(Vpn(102), 3), Perms::RW)]);
    }

    #[test]
    fn brk_restored_first() {
        let snap = vec![anon(100, 4)];
        let cur = vec![anon(100, 4), anon(300, 2)];
        let d = LayoutDiff::compute(&snap, Vpn(60), &cur, Vpn(80));
        assert_eq!(d.brk, Some((Vpn(80), Vpn(60))));
        let plan = d.plan();
        assert_eq!(plan[0], Syscall::Brk(Vpn(60)));
        assert_eq!(plan.len(), 2);
        assert_eq!(d.syscall_count(), 2);
    }

    #[test]
    fn heap_vmas_are_excluded_from_mapping_plan() {
        // The heap is restored via brk, not munmap/mmap.
        let snap = vec![vma(50, 10, Perms::RW, VmaKind::Heap)];
        let cur = vec![vma(50, 30, Perms::RW, VmaKind::Heap)];
        let d = LayoutDiff::compute(&snap, Vpn(60), &cur, Vpn(80));
        assert!(d.to_munmap.is_empty());
        assert!(d.to_remap.is_empty());
        assert_eq!(d.brk, Some((Vpn(80), Vpn(60))));
    }

    #[test]
    fn adjacent_changes_coalesce_into_single_syscalls() {
        let snap = vec![anon(100, 4)];
        // Two adjacent added regions with different kinds cannot merge in
        // the VMA list but coalesce into one munmap range.
        let cur = vec![
            anon(100, 4),
            anon(200, 4),
            vma(204, 4, Perms::R, VmaKind::Anon),
        ];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_munmap, vec![PageRange::at(Vpn(200), 8)]);
    }

    #[test]
    fn complex_churn_round_trips() {
        // Snapshot: three regions. Current: one grew, one vanished, a new
        // one appeared, perms flipped on part of the third.
        let snap = vec![
            anon(100, 10),
            vma(200, 8, Perms::RX, VmaKind::File("lib".into())),
            anon(400, 6),
        ];
        let cur = vec![
            anon(100, 14),                        // grew
            vma(400, 3, Perms::R, VmaKind::Anon), // shrank + perms changed
            anon(600, 5),                         // new
        ];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        // Growth + new region unmapped.
        assert!(d.to_munmap.contains(&PageRange::at(Vpn(110), 4)));
        assert!(d.to_munmap.contains(&PageRange::at(Vpn(600), 5)));
        // Vanished file region + shrunk tail remapped.
        assert!(d
            .to_remap
            .iter()
            .any(|r| r.range == PageRange::at(Vpn(200), 8)));
        assert!(d
            .to_remap
            .iter()
            .any(|r| r.range == PageRange::at(Vpn(403), 3)));
        // Perms restored on the surviving overlap.
        assert_eq!(d.to_mprotect, vec![(PageRange::at(Vpn(400), 3), Perms::RW)]);
    }
}
