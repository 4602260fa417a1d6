//! Host-side scaling measurements for the extent-based bookkeeping.
//!
//! Also home of the retained pre-merge layout diff ([`legacy_diff`]),
//! the reference the diff oracle (`crates/core/tests/prop_diff.rs`)
//! and the `scaling_layout_diff_speedup` gate ([`layout_diff`]) compare
//! `LayoutDiff::compute` against.
//!
//! Measures real wall-clock (not virtual time) of the three
//! bookkeeping-bound operations — snapshot **capture**, dirty **scan**
//! (tracker collect) and restore **plan-build** — at 64k / 256k / 1M
//! mapped pages with a 1% write set, for both the extent-based
//! production path and a retained emulation of the per-page legacy path
//! (full pagemap walk + `BTreeMap`/`BTreeSet` construction, exactly the
//! pre-extent algorithms).
//!
//! Gate design: raw ns/page is machine-dependent, so feeding it to the
//! 10% regression gate would fail on any CI runner slower or faster
//! than the machine that wrote the baseline. The gated metric family is
//! therefore **machine-independent**: legacy/new speedup ratios
//! (same-machine quotients), an O(dirty) growth check across sizes, and
//! the deterministic simulated cost under extent charging. The raw
//! ns/page readings are published as `info_`-prefixed metrics (written
//! to `BENCH_fleet.json` and `results/scaling.csv`, exempt from the
//! gate) for humans and trend dashboards.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use gh_mem::{FrameData, PageRange, Perms, Taint, Touch, Vma, VmaKind, Vpn};
use gh_proc::{Kernel, Pid, PtraceSession};
use gh_sim::report::TextTable;
use gh_sim::{ChargeModel, ScanShape};
use groundhog_core::diff::RemapRegion;
use groundhog_core::plan::RestorePlanner;
use groundhog_core::snapshot::Snapshotter;
use groundhog_core::track::{make_tracker, DirtyReport, MemoryTracker};
use groundhog_core::{GroundhogConfig, LayoutDiff, TrackerKind};

/// One measured size point.
pub struct SizePoint {
    /// Mapped/present pages.
    pub pages: u64,
    /// Dirty pages (1% of mapped, scattered).
    pub dirty: u64,
    /// ns/page, new extent-based path.
    pub capture_ns_per_page: f64,
    pub scan_ns_per_page: f64,
    pub plan_ns_per_page: f64,
    /// ns/page, legacy per-page emulation.
    pub legacy_capture_ns_per_page: f64,
    pub legacy_scan_ns_per_page: f64,
    pub legacy_plan_ns_per_page: f64,
    /// Wall-clock totals (for ratio math), nanoseconds.
    pub capture_ns: f64,
    pub scan_ns: f64,
    pub plan_ns: f64,
    pub legacy_capture_ns: f64,
    pub legacy_scan_ns: f64,
    pub legacy_plan_ns: f64,
}

/// The whole family: per-size points plus simulated costs.
pub struct ScalingReport {
    pub points: Vec<SizePoint>,
    /// Scan wall-clock at 64k mapped pages with the *fixed* 655-page
    /// dirty set (the growth probe's rig — separate from the 1%-of-own-
    /// size points so the speedup ratios stay internally consistent).
    pub fixed_scan_ns_64k: f64,
    /// Scan wall-clock at 1M mapped pages, same fixed dirty set.
    pub fixed_scan_ns_1m: f64,
    /// Simulated scan cost at 1M pages / 1% dirty, µs, extent charging.
    pub sim_scan_us_extent_1m: f64,
    /// Same shape under paper-parity charging, µs.
    pub sim_scan_us_paper_1m: f64,
}

impl ScalingReport {
    fn at(&self, pages: u64) -> &SizePoint {
        self.points
            .iter()
            .find(|p| p.pages == pages)
            .expect("size point measured")
    }

    /// Legacy / new wall-clock ratio for capture + scan + plan-build at
    /// 1M pages (the tentpole's ≥5x claim).
    pub fn capture_plan_speedup_1m(&self) -> f64 {
        let p = self.at(1 << 20);
        (p.legacy_capture_ns + p.legacy_scan_ns + p.legacy_plan_ns)
            / (p.capture_ns + p.scan_ns + p.plan_ns).max(1.0)
    }

    /// Legacy / new capture-only ratio at 1M pages.
    pub fn capture_speedup_1m(&self) -> f64 {
        let p = self.at(1 << 20);
        p.legacy_capture_ns / p.capture_ns.max(1.0)
    }

    /// Scan-time growth from 64k to 1M mapped pages at a fixed dirty
    /// count: ~1 for the O(dirty) index scan, ~16 for a pagemap walk.
    pub fn scan_growth_64k_to_1m(&self) -> f64 {
        self.fixed_scan_ns_1m / self.fixed_scan_ns_64k.max(1.0)
    }
}

/// A process with `pages` present pages in one big anonymous region,
/// snapshotted (tracking armed), with `dirty` scattered pages rewritten.
fn rig(pages: u64, dirty: u64) -> (Kernel, Pid, PageRange, Box<dyn MemoryTracker>) {
    let mut kernel = Kernel::boot();
    let pid = kernel.spawn("scaling");
    let region = kernel
        .run_charged(pid, |p, frames| {
            let r = p.mem.mmap(pages, Perms::RW, VmaKind::Anon).unwrap();
            for vpn in r.iter() {
                p.mem
                    .touch(vpn, Touch::WriteWord(vpn.0), Taint::Clean, frames)
                    .unwrap();
            }
            r
        })
        .unwrap()
        .0;
    let mut tracker = make_tracker(TrackerKind::SoftDirty);
    // Arm tracking without building a snapshot we would only throw away.
    {
        let mut s = PtraceSession::attach(&mut kernel, pid).unwrap();
        s.interrupt_all().unwrap();
        tracker.arm(&mut s).unwrap();
        s.detach().unwrap();
    }
    // 1% write set, scattered uniformly (stride 100 ⇒ every dirty page
    // splits the armed run: extents = O(dirty), the worst honest case).
    let stride = (pages / dirty).max(1);
    kernel
        .run_charged(pid, |p, frames| {
            for i in 0..dirty {
                p.mem
                    .touch(
                        Vpn(region.start.0 + i * stride),
                        Touch::WriteWord(!i),
                        Taint::Clean,
                        frames,
                    )
                    .unwrap();
            }
        })
        .unwrap();
    (kernel, pid, region, tracker)
}

/// Best-of-`iters` wall-clock of `f`, in nanoseconds.
fn best_of(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// The legacy eager capture: walk the pagemap page by page and clone
/// every present page's contents into a per-page map (the pre-extent
/// `Snapshotter` algorithm, verbatim in shape).
fn legacy_capture(kernel: &Kernel, pid: Pid) -> BTreeMap<u64, FrameData> {
    let proc = kernel.process(pid).unwrap();
    let mut copies = BTreeMap::new();
    for (vpn, pte) in proc.mem.pagemap() {
        copies.insert(vpn.0, kernel.frames().data(pte.frame).clone());
    }
    copies
}

/// The legacy dirty scan: a full pagemap walk materializing one entry
/// per present page, then filtering the dirty ones.
fn legacy_scan(kernel: &Kernel, pid: Pid) -> (Vec<Vpn>, Vec<(Vpn, bool)>) {
    let proc = kernel.process(pid).unwrap();
    let entries: Vec<(Vpn, bool)> = proc
        .mem
        .pagemap()
        .map(|(vpn, pte)| (vpn, pte.soft_dirty()))
        .collect();
    let dirty: Vec<Vpn> = entries
        .iter()
        .filter(|(_, sd)| *sd)
        .map(|(v, _)| *v)
        .collect();
    (dirty, entries)
}

/// The legacy plan-build set math: per-page `BTreeSet`s for the present
/// set, the snapshot ∖ present term and run grouping (the pre-extent
/// `RestorePlanner` algorithm).
fn legacy_plan(
    snapshot_vpns: &[u64],
    dirty: &[Vpn],
    entries: &[(Vpn, bool)],
) -> (u64, Vec<PageRange>) {
    let snapshot: BTreeSet<u64> = snapshot_vpns.iter().copied().collect();
    let present: BTreeSet<u64> = entries.iter().map(|(v, _)| v.0).collect();
    let mut restore_set: BTreeSet<u64> = dirty
        .iter()
        .map(|v| v.0)
        .filter(|v| snapshot.contains(v))
        .collect();
    for &v in &snapshot {
        if !present.contains(&v) {
            restore_set.insert(v);
        }
    }
    let sorted: Vec<u64> = restore_set.into_iter().collect();
    let runs = groundhog_core::plan::group_ranges(&sorted);
    (sorted.len() as u64, runs)
}

/// The retained reference layout diff: the boundary sweep
/// `LayoutDiff::compute` ran before it became one merge over borrowed
/// VMA lists. Both lists are flattened to sorted `(range, attrs)`
/// segments (cloning every kind), every segment boundary of both is
/// collected, sorted and deduplicated, and each elementary interval
/// looks its attributes up on both sides. The output must equal
/// `LayoutDiff::compute`'s on every address-ordered input.
pub fn legacy_diff(snap_vmas: &[Vma], snap_brk: Vpn, cur_vmas: &[Vma], cur_brk: Vpn) -> LayoutDiff {
    type Attrs = (Perms, VmaKind);
    fn segments(vmas: &[Vma]) -> Vec<(PageRange, Attrs)> {
        let mut v: Vec<(PageRange, Attrs)> = vmas
            .iter()
            .filter(|m| !matches!(m.kind, VmaKind::Heap))
            .map(|m| (m.range, (m.perms, m.kind.clone())))
            .collect();
        v.sort_by_key(|(r, _)| r.start.0);
        v
    }
    fn attrs_at(segs: &[(PageRange, Attrs)], cursor: &mut usize, page: Vpn) -> Option<Attrs> {
        while *cursor < segs.len() && segs[*cursor].0.end.0 <= page.0 {
            *cursor += 1;
        }
        segs.get(*cursor)
            .filter(|(r, _)| r.contains(page))
            .map(|(_, a)| a.clone())
    }
    let snap = segments(snap_vmas);
    let cur = segments(cur_vmas);
    let mut bounds: Vec<u64> = snap
        .iter()
        .chain(cur.iter())
        .flat_map(|(r, _)| [r.start.0, r.end.0])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();

    let mut diff = LayoutDiff::default();
    let (mut ci, mut si) = (0usize, 0usize);
    for w in bounds.windows(2) {
        let range = PageRange::new(Vpn(w[0]), Vpn(w[1]));
        if range.is_empty() {
            continue;
        }
        let s = attrs_at(&snap, &mut si, range.start);
        let c = attrs_at(&cur, &mut ci, range.start);
        match (s, c) {
            (None, None) => {}
            (None, Some(_)) => match diff.to_munmap.last_mut() {
                Some(last) if last.end == range.start => last.end = range.end,
                _ => diff.to_munmap.push(range),
            },
            (Some((perms, kind)), None) => match diff.to_remap.last_mut() {
                Some(last)
                    if last.range.end == range.start
                        && last.perms == perms
                        && last.kind == kind =>
                {
                    last.range.end = range.end
                }
                _ => diff.to_remap.push(RemapRegion { range, perms, kind }),
            },
            (Some((sp, _)), Some((cp, _))) => {
                if sp != cp {
                    match diff.to_mprotect.last_mut() {
                        Some((last, lp)) if last.end == range.start && *lp == sp => {
                            last.end = range.end
                        }
                        _ => diff.to_mprotect.push((range, sp)),
                    }
                }
            }
        }
    }
    if snap_brk != cur_brk {
        diff.brk = Some((cur_brk, snap_brk));
    }
    diff
}

/// Host cost of one Node-shaped restore's layout diff: the retained
/// reference sweep vs the merge `LayoutDiff::compute`, on the same pair
/// of layouts.
pub struct LayoutDiffPoint {
    /// VMAs in the snapshot-time layout.
    pub vmas: usize,
    /// ns per diff, [`legacy_diff`].
    pub legacy_ns: f64,
    /// ns per diff, `LayoutDiff::compute`.
    pub merge_ns: f64,
}

impl LayoutDiffPoint {
    /// Reference / merge wall-clock ratio (same machine, same inputs).
    pub fn speedup(&self) -> f64 {
        self.legacy_ns / self.merge_ns.max(1.0)
    }
}

/// Measures both diffs on a Node.js runtime image before and after one
/// request's layout churn (the diff every Node restore computes). Each
/// sample times a burst of diffs so the per-diff figure is well above
/// timer resolution; best of several samples, as elsewhere here.
pub fn layout_diff() -> LayoutDiffPoint {
    let mut kernel = Kernel::boot();
    let mut fproc = gh_runtime::FunctionProcess::build(
        &mut kernel,
        "layout-diff",
        gh_runtime::RuntimeProfile::for_kind(gh_runtime::RuntimeKind::NodeJs),
        4096,
    );
    let (snap, snap_brk) = {
        let mem = &kernel.process(fproc.pid).unwrap().mem;
        (mem.maps(), mem.brk())
    };
    fproc.churn_layout(&mut kernel);
    let (cur, cur_brk) = {
        let mem = &kernel.process(fproc.pid).unwrap().mem;
        (mem.maps(), mem.brk())
    };
    let merge = LayoutDiff::compute(&snap, snap_brk, &cur, cur_brk);
    let legacy = legacy_diff(&snap, snap_brk, &cur, cur_brk);
    assert_eq!(merge.plan(), legacy.plan(), "layout diff agreement");
    assert!(!merge.is_empty(), "the churn changed the layout");

    const BURST: u32 = 64;
    let per_diff = |f: &dyn Fn()| {
        best_of(9, || {
            for _ in 0..BURST {
                f();
            }
        }) / f64::from(BURST)
    };
    LayoutDiffPoint {
        vmas: snap.len(),
        legacy_ns: per_diff(&|| {
            std::hint::black_box(legacy_diff(&snap, snap_brk, &cur, cur_brk));
        }),
        merge_ns: per_diff(&|| {
            std::hint::black_box(LayoutDiff::compute(&snap, snap_brk, &cur, cur_brk));
        }),
    }
}

/// Measures one size point.
fn measure(pages: u64) -> SizePoint {
    let dirty = (pages / 100).max(1);
    let (mut kernel, pid, _region, mut tracker) = rig(pages, dirty);
    let cfg = GroundhogConfig::gh();

    // --- scan ---
    let scan_iters = if pages >= 1 << 20 { 3 } else { 5 };
    let mut report: Option<DirtyReport> = None;
    let scan_ns = best_of(scan_iters, || {
        let mut s = PtraceSession::attach(&mut kernel, pid).unwrap();
        s.interrupt_all().unwrap();
        report = Some(tracker.collect(&mut s).unwrap());
        s.detach().unwrap();
    });
    let report = report.unwrap();
    let legacy_scan_ns = best_of(scan_iters, || {
        std::hint::black_box(legacy_scan(&kernel, pid));
    });
    let (legacy_dirty, legacy_entries) = legacy_scan(&kernel, pid);
    assert_eq!(legacy_dirty.len() as u64, dirty, "scan agreement");
    assert_eq!(report.dirty.len() as u64, dirty, "scan agreement");

    // --- capture (snapshot take) + plan-build ---
    let mut snapshot: Option<groundhog_core::snapshot::Snapshot> = None;
    let capture_ns = best_of(scan_iters, || {
        if let Some(mut old) = snapshot.take() {
            let (_, frames) = kernel.mem_ctx(pid).unwrap();
            old.release(frames);
        }
        let mut t = make_tracker(TrackerKind::SoftDirty);
        let (snap, _) = Snapshotter::take(&mut kernel, pid, t.as_mut()).unwrap();
        snapshot = Some(snap);
    });
    let snapshot = snapshot.unwrap();
    let legacy_capture_ns = best_of(scan_iters, || {
        std::hint::black_box(legacy_capture(&kernel, pid));
    });

    let diff = {
        let proc = kernel.process(pid).unwrap();
        LayoutDiff::compute(
            &snapshot.vmas,
            snapshot.brk,
            &proc.mem.maps(),
            proc.mem.brk(),
        )
    };
    let plan_ns = best_of(scan_iters, || {
        std::hint::black_box(RestorePlanner::build(&snapshot, &report, &diff, &cfg));
    });
    let snapshot_vpns = snapshot.page_vpns();
    let legacy_plan_ns = best_of(scan_iters, || {
        std::hint::black_box(legacy_plan(&snapshot_vpns, &legacy_dirty, &legacy_entries));
    });

    let per = |ns: f64| ns / pages as f64;
    SizePoint {
        pages,
        dirty,
        capture_ns_per_page: per(capture_ns),
        scan_ns_per_page: per(scan_ns),
        plan_ns_per_page: per(plan_ns),
        legacy_capture_ns_per_page: per(legacy_capture_ns),
        legacy_scan_ns_per_page: per(legacy_scan_ns),
        legacy_plan_ns_per_page: per(legacy_plan_ns),
        capture_ns,
        scan_ns,
        plan_ns,
        legacy_capture_ns,
        legacy_scan_ns,
        legacy_plan_ns,
    }
}

/// Runs the family at 64k / 256k / 1M pages (each with a 1%-of-own-size
/// write set), plus a separate fixed-dirty growth probe: the scan is
/// re-measured at 64k and 1M with the *same* absolute dirty count so
/// the growth ratio isolates the mapped-size dependence.
pub fn run() -> ScalingReport {
    let points: Vec<SizePoint> = [1u64 << 16, 1 << 18, 1 << 20]
        .iter()
        .map(|&p| measure(p))
        .collect();
    // Fixed-dirty growth probe: measure the scan at 64k and 1M with the
    // same absolute dirty count (1% of 64k = 655 pages). Kept separate
    // from the points above — overwriting their 1%-of-own-size scan
    // times would make the speedup ratios and the published ns/page
    // columns mix two different rigs.
    let fixed_dirty = (1u64 << 16) / 100;
    let fixed_scan = |pages: u64| -> f64 {
        let (mut kernel, pid, _r, mut tracker) = rig(pages, fixed_dirty);
        best_of(5, || {
            let mut s = PtraceSession::attach(&mut kernel, pid).unwrap();
            s.interrupt_all().unwrap();
            std::hint::black_box(tracker.collect(&mut s).unwrap());
            s.detach().unwrap();
        })
    };
    let fixed_scan_ns_64k = fixed_scan(1 << 16);
    let fixed_scan_ns_1m = fixed_scan(1 << 20);

    // Deterministic simulated costs at the 1M/1% shape.
    let shape = ScanShape {
        mapped_pages: 1 << 20,
        vmas: 3,
        extents: 2 * ((1u64 << 20) / 100) + 3,
        dirty_pages: (1 << 20) / 100,
    };
    let mut extent_model = gh_sim::CostModel::calibrated();
    extent_model.charge_model = ChargeModel::ExtentDirty;
    let paper_model = gh_sim::CostModel::calibrated();
    ScalingReport {
        points,
        fixed_scan_ns_64k,
        fixed_scan_ns_1m,
        sim_scan_us_extent_1m: extent_model.dirty_scan_cost(shape).as_millis_f64() * 1e3,
        sim_scan_us_paper_1m: paper_model.dirty_scan_cost(shape).as_millis_f64() * 1e3,
    }
}

/// Renders the per-size table (stdout + `results/scaling.csv`).
pub fn render(report: &ScalingReport) -> TextTable {
    let headers = [
        "pages",
        "dirty",
        "capture ns/pg",
        "scan ns/pg",
        "plan ns/pg",
        "legacy capture",
        "legacy scan",
        "legacy plan",
    ];
    let mut table = TextTable::new(&headers);
    for p in &report.points {
        table.row_owned(vec![
            p.pages.to_string(),
            p.dirty.to_string(),
            format!("{:.2}", p.capture_ns_per_page),
            format!("{:.3}", p.scan_ns_per_page),
            format!("{:.3}", p.plan_ns_per_page),
            format!("{:.2}", p.legacy_capture_ns_per_page),
            format!("{:.3}", p.legacy_scan_ns_per_page),
            format!("{:.3}", p.legacy_plan_ns_per_page),
        ]);
    }
    table
}
