//! Differential oracle: `AddressSpace::touch_batch` vs the per-page
//! `touch` loop.
//!
//! Two address spaces receive identical histories; where one applies a
//! touch sequence page by page, the other applies the same sequence as
//! a [`TouchBatch`]. After every epoch the test pins *full* equivalence:
//! fault counters, extent structure, per-page flags, soft-dirty and
//! taint index contents, logical page bytes, uffd logs, lazy-pending
//! sets and live-frame counts. This is the contract the batched request
//! hot path (`gh_functions::Executor`) relies on for bit-identical
//! simulated timelines.

use std::collections::BTreeMap;

use gh_sim::DetRng;

use gh_mem::{
    AddressSpace, FrameData, FrameTable, LazyPageSource, PageRange, Perms, RequestId, SpaceConfig,
    Taint, Touch, TouchBatch, VmaKind, Vpn,
};

/// A pair of spaces driven in lockstep: `a` by per-page touches, `b` by
/// batches. All non-touch operations are mirrored verbatim.
struct Pair {
    a: AddressSpace,
    fa: FrameTable,
    b: AddressSpace,
    fb: FrameTable,
    batch: TouchBatch,
}

impl Pair {
    fn new() -> Pair {
        let mut fa = FrameTable::new();
        let a = AddressSpace::new(SpaceConfig::default(), &mut fa);
        let mut fb = FrameTable::new();
        let b = AddressSpace::new(SpaceConfig::default(), &mut fb);
        Pair {
            a,
            fa,
            b,
            fb,
            batch: TouchBatch::new(),
        }
    }

    fn mmap(&mut self, len: u64) -> PageRange {
        let ra = self.a.mmap(len, Perms::RW, VmaKind::Anon).unwrap();
        let rb = self.b.mmap(len, Perms::RW, VmaKind::Anon).unwrap();
        assert_eq!(ra, rb);
        ra
    }

    /// Applies the same touch sequence per-page to `a` and batched to
    /// `b`, then checks equivalence.
    fn apply(&mut self, touches: &[(Vpn, Touch, Taint)], ctx: &str) {
        self.batch.clear();
        let mut loop_failed = 0u64;
        for &(vpn, touch, taint) in touches {
            loop_failed += self.a.touch(vpn, touch, taint, &mut self.fa).is_err() as u64;
            self.batch.push(vpn, touch, taint);
        }
        let before = self.b.counters();
        let outcome = self.b.touch_batch(&self.batch, &mut self.fb);
        assert_eq!(
            self.b.counters().since(before),
            outcome.faults,
            "{ctx}: returned delta disagrees with the accumulator"
        );
        assert_eq!(
            outcome.failed, loop_failed,
            "{ctx}: failed-item count disagrees with the loop's errors"
        );
        self.assert_equiv(ctx);
    }

    fn assert_equiv(&self, ctx: &str) {
        assert_eq!(self.a.counters(), self.b.counters(), "{ctx}: counters");
        assert_eq!(
            self.a.present_pages(),
            self.b.present_pages(),
            "{ctx}: present"
        );
        assert_eq!(
            self.a.extent_count(),
            self.b.extent_count(),
            "{ctx}: extent structure"
        );
        let ea: Vec<_> = self.a.extents().collect();
        let eb: Vec<_> = self.b.extents().collect();
        assert_eq!(ea, eb, "{ctx}: extents");
        assert_eq!(
            self.a.soft_dirty_pages(),
            self.b.soft_dirty_pages(),
            "{ctx}: dirty set"
        );
        assert_eq!(
            self.a.lazy_pending_vpns(),
            self.b.lazy_pending_vpns(),
            "{ctx}: lazy pending"
        );
        assert_eq!(
            self.fa.live(),
            self.fb.live(),
            "{ctx}: live frame accounting"
        );
        for (vpn, pa) in self.a.pagemap() {
            let pb = self
                .b
                .pte(vpn)
                .unwrap_or_else(|| panic!("{ctx}: page {:#x} present in a, absent in b", vpn.0));
            assert_eq!(pa.flags, pb.flags, "{ctx}: flags of {:#x}", vpn.0);
            assert!(
                self.fa.data(pa.frame).logical_eq(self.fb.data(pb.frame)),
                "{ctx}: contents of {:#x}",
                vpn.0
            );
            assert_eq!(
                self.fa.taint(pa.frame),
                self.fb.taint(pb.frame),
                "{ctx}: taint of {:#x}",
                vpn.0
            );
        }
        self.a.check_invariants_with_frames(&self.fa).unwrap();
        self.b.check_invariants_with_frames(&self.fb).unwrap();
    }
}

/// The executor's shape: sorted strided writes then sorted strided
/// reads, over pages armed by a soft-dirty clear each epoch.
#[test]
fn strided_write_read_epochs_match() {
    let mut p = Pair::new();
    let r = p.mmap(4096);
    for epoch in 0..6u64 {
        let writes = 128 + epoch * 97;
        let stride = (r.len() / writes).max(1);
        let phase = epoch % stride;
        let mut touches = Vec::new();
        for i in 0..writes {
            let idx = i * stride + phase;
            if idx >= r.len() {
                break;
            }
            touches.push((
                Vpn(r.start.0 + idx),
                Touch::WriteWord(0x1000 ^ epoch ^ i),
                Taint::One(RequestId(epoch + 1)),
            ));
        }
        let reads = (2 * writes).min(r.len());
        let rstride = (r.len() / reads).max(1);
        for i in 0..reads {
            let idx = i * rstride;
            if idx >= r.len() {
                break;
            }
            touches.push((Vpn(r.start.0 + idx), Touch::Read, Taint::Clean));
        }
        // Writes then reads, each sub-sequence sorted — apply as two
        // batches exactly like the executor.
        let (w, rd) = touches.split_at(writes.min(r.len()) as usize);
        p.apply(w, &format!("epoch {epoch} writes"));
        p.apply(rd, &format!("epoch {epoch} reads"));
        p.a.clear_soft_dirty();
        p.b.clear_soft_dirty();
        p.assert_equiv(&format!("epoch {epoch} after clear"));
    }
}

/// Overlapping read/write including duplicate vpns within one batch,
/// mixed taints, and permission holes (skipped items).
#[test]
fn overlapping_and_denied_touches_match() {
    let mut p = Pair::new();
    let r = p.mmap(256);
    // Punch a read-only window and an unmapped hole.
    let ro = PageRange::at(Vpn(r.start.0 + 40), 8);
    p.a.mprotect(ro, Perms::R).unwrap();
    p.b.mprotect(ro, Perms::R).unwrap();
    let hole = PageRange::at(Vpn(r.start.0 + 100), 4);
    p.a.munmap(hole, &mut p.fa).unwrap();
    p.b.munmap(hole, &mut p.fb).unwrap();

    let mut rng = DetRng::new(0xBA7C);
    for round in 0..24u64 {
        let mut touches = Vec::new();
        let mut vpn = r.start.0;
        while vpn < r.end.0 {
            vpn += rng.next_below(5);
            if vpn >= r.end.0 {
                break;
            }
            let n = 1 + rng.next_below(3);
            for k in 0..n {
                let taint = match rng.next_below(3) {
                    0 => Taint::Clean,
                    t => Taint::One(RequestId(t)),
                };
                touches.push(if rng.next_below(2) == 0 {
                    (Vpn(vpn), Touch::WriteWord(round << 8 | k), taint)
                } else {
                    (Vpn(vpn), Touch::Read, Taint::Clean)
                });
            }
        }
        p.apply(&touches, &format!("round {round}"));
        if round % 5 == 0 {
            p.a.clear_soft_dirty();
            p.b.clear_soft_dirty();
        }
    }
}

/// Lazy-armed pages: pending obligations resolved mid-batch must
/// install the same contents, flags and counters, in the same order
/// relative to surrounding touches.
#[test]
fn lazy_armed_batches_match() {
    let mut p = Pair::new();
    let r = p.mmap(128);
    // Page everything in with tainted contents, arm tracking.
    let all: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(0xD1127 ^ v.0), Taint::One(RequestId(1))))
        .collect();
    p.apply(&all, "page-in");
    p.a.clear_soft_dirty();
    p.b.clear_soft_dirty();
    // Arm a scattered lazy set in both.
    let set = |_: &AddressSpace| -> BTreeMap<u64, LazyPageSource> {
        r.iter()
            .filter(|v| v.0 % 3 == 0)
            .map(|v| (v.0, LazyPageSource::Data(FrameData::Pattern(v.0 ^ 0x5A))))
            .collect()
    };
    p.a.arm_lazy(set(&p.a));
    p.b.arm_lazy(set(&p.b));
    p.assert_equiv("after arming");
    // Mixed batch: reads and writes striding across pending and
    // non-pending pages, including duplicate touches of pending pages
    // (first one takes the lazy fault, second is warm).
    let mut touches = Vec::new();
    for v in r.iter().step_by(2) {
        touches.push((v, Touch::WriteWord(0xFF ^ v.0), Taint::One(RequestId(2))));
        if v.0 % 6 == 0 {
            touches.push((v, Touch::Read, Taint::Clean));
        }
    }
    p.apply(&touches, "lazy writes");
    let reads: Vec<_> = r.iter().map(|v| (v, Touch::Read, Taint::Clean)).collect();
    p.apply(&reads, "lazy reads");
    // Drain the stragglers identically.
    assert_eq!(
        p.a.drain_lazy(u64::MAX, &mut p.fa),
        p.b.drain_lazy(u64::MAX, &mut p.fb)
    );
    p.assert_equiv("after drain");
}

/// CoW snapshots: structurally shared frames unshare identically under
/// batched and per-page writes, with single-fault CoW+SD accounting.
#[test]
fn cow_snapshot_batches_match() {
    let mut p = Pair::new();
    let r = p.mmap(96);
    let all: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(7), Taint::Clean))
        .collect();
    p.apply(&all, "page-in");
    // Snapshot observers hold every frame; mark CoW and arm SD — the
    // next write must take exactly one fault (CoW subsumes SD arming).
    let snap_a: Vec<_> = r.iter().map(|v| p.a.pte(v).unwrap().frame).collect();
    for &id in &snap_a {
        p.fa.incref(id);
    }
    let snap_b: Vec<_> = r.iter().map(|v| p.b.pte(v).unwrap().frame).collect();
    for &id in &snap_b {
        p.fb.incref(id);
    }
    p.a.mark_all_cow();
    p.b.mark_all_cow();
    p.a.clear_soft_dirty();
    p.b.clear_soft_dirty();
    let writes: Vec<_> = r
        .iter()
        .step_by(3)
        .map(|v| (v, Touch::WriteWord(0xC0), Taint::One(RequestId(9))))
        .collect();
    p.apply(&writes, "cow writes");
    assert!(p.b.counters().cow > 0, "CoW faults actually exercised");
    // Snapshot frames are untouched in both worlds.
    for (&ia, &ib) in snap_a.iter().zip(&snap_b) {
        assert!(p.fa.data(ia).logical_eq(p.fb.data(ib)));
        p.fa.decref(ia);
        p.fb.decref(ib);
    }
    p.assert_equiv("after cow");
}

/// Userfaultfd tracking: armed batches log the same dirty pages in the
/// same order and take the same uffd-wp fault counts.
#[test]
fn uffd_armed_batches_match() {
    let mut p = Pair::new();
    let r = p.mmap(200);
    let all: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(1), Taint::Clean))
        .collect();
    p.apply(&all, "page-in");
    p.a.arm_uffd_wp();
    p.b.arm_uffd_wp();
    let mixed: Vec<_> = r
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if i % 4 == 0 {
                (v, Touch::WriteWord(i as u64), Taint::One(RequestId(3)))
            } else {
                (v, Touch::Read, Taint::Clean)
            }
        })
        .collect();
    p.apply(&mixed, "uffd epoch");
    assert_eq!(p.a.disarm_uffd(), p.b.disarm_uffd(), "uffd logs");
    p.assert_equiv("after disarm");
}

/// Minor-fault runs: batches over absent pages (first touch after mmap
/// or madvise) install identical fresh pages.
#[test]
fn minor_fault_runs_match() {
    let mut p = Pair::new();
    let r = p.mmap(512);
    // Touch a scattered subset first, then a full sweep: the batch
    // interleaves warm pages and absent runs.
    let scattered: Vec<_> = r
        .iter()
        .step_by(7)
        .map(|v| (v, Touch::WriteWord(v.0), Taint::One(RequestId(1))))
        .collect();
    p.apply(&scattered, "scattered");
    let sweep: Vec<_> = r.iter().map(|v| (v, Touch::Read, Taint::Clean)).collect();
    p.apply(&sweep, "sweep");
    // madvise a window away and re-touch.
    let win = PageRange::at(Vpn(r.start.0 + 64), 32);
    p.a.madvise_dontneed(win, &mut p.fa).unwrap();
    p.b.madvise_dontneed(win, &mut p.fb).unwrap();
    let again: Vec<_> = r
        .iter()
        .map(|v| (v, Touch::WriteWord(2), Taint::Clean))
        .collect();
    p.apply(&again, "post-madvise");
}

/// An unsorted batch falls back to the loop path and stays equivalent.
#[test]
fn unsorted_batch_falls_back() {
    let mut p = Pair::new();
    let r = p.mmap(64);
    let touches: Vec<_> = (0..r.len())
        .rev()
        .map(|i| {
            let v = Vpn(r.start.0 + i);
            (v, Touch::WriteWord(v.0), Taint::One(RequestId(5)))
        })
        .collect();
    p.apply(&touches, "reverse order");
    assert!(!p.batch.is_sorted());
}

use gh_mem::FrameId;

/// Three address spaces driven through one identical history; the
/// writeback oracle below lands the same runs in each a different way.
struct Worlds(Vec<(AddressSpace, FrameTable)>);

impl Worlds {
    fn new() -> Worlds {
        Worlds(
            (0..3)
                .map(|_| {
                    let mut f = FrameTable::new();
                    (AddressSpace::new(SpaceConfig::default(), &mut f), f)
                })
                .collect(),
        )
    }

    /// Applies `op` to every world; all must return the same value.
    fn each<R: PartialEq + std::fmt::Debug>(
        &mut self,
        mut op: impl FnMut(&mut AddressSpace, &mut FrameTable) -> R,
    ) -> R {
        let mut out: Vec<R> = self.0.iter_mut().map(|(s, f)| op(s, f)).collect();
        assert!(
            out.windows(2).all(|w| w[0] == w[1]),
            "worlds diverged: {out:?}"
        );
        out.swap_remove(0)
    }

    /// Full equivalence of worlds `i` and `j`: per-page frame ids, flags,
    /// contents and taint; extents; the dirty and tainted indices; and
    /// the frame table's live count, allocation count and free-list
    /// order (the next allocation's id).
    fn assert_equiv(&mut self, i: usize, j: usize, reqs: &[RequestId], ctx: &str) {
        let (a, fa) = &self.0[i];
        let (b, fb) = &self.0[j];
        let ea: Vec<_> = a.extents().collect();
        let eb: Vec<_> = b.extents().collect();
        assert_eq!(ea, eb, "{ctx}: extents");
        let pa: Vec<_> = a.pagemap().collect();
        let pb: Vec<_> = b.pagemap().collect();
        assert_eq!(pa, pb, "{ctx}: frame ids and flags");
        for (vpn, pte) in &pa {
            assert!(
                fa.data(pte.frame).logical_eq(fb.data(pte.frame)),
                "{ctx}: contents of {:#x}",
                vpn.0
            );
            assert_eq!(fa.taint(pte.frame), fb.taint(pte.frame), "{ctx}: taint");
        }
        assert_eq!(
            a.soft_dirty_pages(),
            b.soft_dirty_pages(),
            "{ctx}: dirty index"
        );
        for &req in reqs {
            assert_eq!(
                a.tainted_pages(req, fa),
                b.tainted_pages(req, fb),
                "{ctx}: tainted index for {req:?}"
            );
        }
        assert_eq!(fa.live(), fb.live(), "{ctx}: live frames");
        assert_eq!(
            fa.total_allocated(),
            fb.total_allocated(),
            "{ctx}: allocations"
        );
        a.check_invariants_with_frames(fa).unwrap();
        b.check_invariants_with_frames(fb).unwrap();
        // Probe every world, so all stay in lockstep for later checks.
        let next: Vec<FrameId> = self
            .0
            .iter_mut()
            .map(|(_, f)| {
                let id = f.alloc(FrameData::Zero, Taint::Clean);
                f.decref(id);
                id
            })
            .collect();
        assert_eq!(next[i], next[j], "{ctx}: frame reuse order");
    }
}

/// Writeback oracle: one multi-run `restore_runs` call equals the same
/// runs applied one `restore_run` at a time — and, when every run lies
/// inside a VMA, `restore_page` over every page. Runs cover absent
/// pages, privately owned and shared frames (with and without CoW
/// arming), several frame chunks, and runs reaching into a hole or past
/// the mapping (the `Unmapped` path: earlier runs land, the failing run
/// and every later one do not).
#[test]
fn multi_run_restore_matches_run_at_a_time() {
    let reqs = [RequestId(1), RequestId(2), RequestId(3)];
    for case in 0..96u64 {
        let mut rng = DetRng::new(0x3E57_04E5 ^ case);
        let mut w = Worlds::new();
        let region = w.each(|s, _| s.mmap(1200, Perms::RW, VmaKind::Anon).unwrap());
        // A hole, so some runs reach outside every VMA.
        let hole = PageRange::at(Vpn(region.start.0 + 700 + rng.next_below(200)), 3);
        w.each(|s, f| s.munmap(hole, f).unwrap());

        // History: tainted writes and reads over a random subset.
        for _ in 0..rng.next_below(400) {
            let vpn = Vpn(region.start.0 + rng.next_below(region.len()));
            let touch = if rng.next_below(3) == 0 {
                Touch::Read
            } else {
                Touch::WriteWord(rng.next_u64())
            };
            let taint = Taint::One(reqs[rng.next_below(3) as usize]);
            w.each(|s, f| s.touch(vpn, touch, taint, f).is_ok());
        }
        // Shared frames: an observer holds a random subset (an eager
        // snapshot's structural sharing), sometimes CoW-armed.
        let shared: Vec<Vpn> = w.0[0]
            .0
            .pagemap()
            .map(|(v, _)| v)
            .filter(|_| rng.next_below(3) == 0)
            .collect();
        let held: Vec<Vec<FrameId>> = w
            .0
            .iter_mut()
            .map(|(s, f)| {
                let ids: Vec<FrameId> = shared.iter().map(|&v| s.pte(v).unwrap().frame).collect();
                for &id in &ids {
                    f.incref(id);
                }
                ids
            })
            .collect();
        if rng.next_below(2) == 0 {
            w.each(|s, _| s.mark_all_cow());
        }
        if rng.next_below(2) == 0 {
            w.each(|s, _| s.clear_soft_dirty());
        }

        // Sorted, disjoint runs over the region and a little beyond it.
        let mut runs = Vec::new();
        let mut v = region.start.0 - rng.next_below(3);
        while v < region.end.0 + 2 {
            v += rng.next_below(60);
            let long = rng.next_below(4) == 0;
            let len = 1 + rng.next_below(if long { 600 } else { 6 });
            runs.push(PageRange::at(Vpn(v), len));
            v += len;
            if runs.len() == 1 + (case % 40) as usize {
                break;
            }
        }
        let data: Vec<FrameData> = runs
            .iter()
            .flat_map(|r| r.iter())
            .map(|_| match rng.next_below(3) {
                0 => FrameData::Zero,
                _ => FrameData::Pattern(rng.next_u64()),
            })
            .collect();
        let taint = if rng.next_below(4) == 0 {
            Taint::One(RequestId(2))
        } else {
            Taint::Clean
        };

        let (s0, f0) = &mut w.0[0];
        let multi = s0.restore_runs(&runs, data.iter().cloned(), taint, f0);
        let (s1, f1) = &mut w.0[1];
        let mut one_at_a_time = Ok(());
        let mut at = 0usize;
        for r in &runs {
            let n = r.len() as usize;
            one_at_a_time = s1.restore_run(*r, &data[at..at + n], taint, f1);
            if one_at_a_time.is_err() {
                break;
            }
            at += n;
        }
        let ctx = format!("case {case}: {} runs", runs.len());
        assert_eq!(multi, one_at_a_time, "{ctx}: result");
        w.assert_equiv(0, 1, &reqs, &ctx);
        if multi.is_ok() {
            let (s2, f2) = &mut w.0[2];
            for (vpn, page) in runs.iter().flat_map(|r| r.iter()).zip(&data) {
                s2.restore_page(vpn, page, taint, f2).unwrap();
            }
            w.assert_equiv(0, 2, &reqs, &format!("{ctx} vs per-page"));
        }
        for ((_, f), ids) in w.0.iter_mut().zip(held) {
            for id in ids {
                f.decref(id);
            }
        }
        w.assert_equiv(0, 1, &reqs, &format!("{ctx}: after release"));
    }
}
