//! Randomized test: the layout differ's plan is a fixpoint operator.
//!
//! For any snapshot layout and any sequence of layout-churning syscalls,
//! injecting the diff's plan must bring the layout back to (an
//! equivalent of) the snapshot layout — and re-diffing must be empty.
//!
//! Cases are generated with the workspace's own seeded [`DetRng`]
//! (crates.io is unavailable in the build environment, so `proptest`
//! cannot be used); every run replays the identical case set.

use gh_sim::DetRng;

use gh_mem::{PageRange, Perms, Vpn};
use gh_proc::{Kernel, Pid, PtraceSession};
use groundhog_core::diff::LayoutDiff;

#[derive(Clone, Debug)]
enum Churn {
    Mmap(u64),
    MunmapAt(u64, u64),
    MprotectRo(u64, u64),
    BrkGrow(u64),
    BrkShrink(u64),
}

fn random_churn(rng: &mut DetRng) -> Churn {
    match rng.next_below(5) {
        0 => Churn::Mmap(1 + rng.next_below(23)),
        1 => Churn::MunmapAt(rng.next_below(64), 1 + rng.next_below(7)),
        2 => Churn::MprotectRo(rng.next_below(64), 1 + rng.next_below(5)),
        3 => Churn::BrkGrow(1 + rng.next_below(31)),
        _ => Churn::BrkShrink(1 + rng.next_below(31)),
    }
}

fn build_process(region_lens: &[u64]) -> (Kernel, Pid, Vec<PageRange>) {
    let mut kernel = Kernel::boot();
    let pid = kernel.spawn("diff-fuzz");
    let heap_base = kernel.process(pid).unwrap().mem.config().heap_base;
    let mut regions = Vec::new();
    kernel
        .run_charged(pid, |p, frames| {
            p.mem.set_brk(Vpn(heap_base.0 + 20), frames).unwrap();
            for &len in region_lens {
                regions.push(p.mem.mmap(len, Perms::RW, gh_mem::VmaKind::Anon).unwrap());
            }
        })
        .unwrap();
    (kernel, pid, regions)
}

#[test]
fn plan_restores_any_churned_layout() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xD1FF ^ case);
        let region_lens: Vec<u64> = (0..1 + rng.next_below(5))
            .map(|_| 2 + rng.next_below(30))
            .collect();
        let churn: Vec<Churn> = (0..rng.next_below(24))
            .map(|_| random_churn(&mut rng))
            .collect();

        let (mut kernel, pid, regions) = build_process(&region_lens);
        let heap_base = kernel.process(pid).unwrap().mem.config().heap_base;
        let snap_vmas = kernel.process(pid).unwrap().mem.maps();
        let snap_brk = kernel.process(pid).unwrap().mem.brk();

        // Churn the layout arbitrarily (function-side syscalls).
        kernel
            .run_charged(pid, |p, frames| {
                for c in &churn {
                    match c {
                        Churn::Mmap(len) => {
                            let _ = p.mem.mmap(*len, Perms::RW, gh_mem::VmaKind::Anon);
                        }
                        Churn::MunmapAt(off, len) => {
                            if let Some(r) = regions.first() {
                                let start = Vpn(r.start.0 + off % r.len());
                                let _ = p.mem.munmap(PageRange::at(start, *len), frames);
                            }
                        }
                        Churn::MprotectRo(off, len) => {
                            if let Some(r) = regions.last() {
                                let start = Vpn(r.start.0 + off % r.len());
                                let _ = p.mem.mprotect(PageRange::at(start, *len), Perms::R);
                            }
                        }
                        Churn::BrkGrow(d) => {
                            let cur = p.mem.brk();
                            let _ = p.mem.set_brk(Vpn(cur.0 + d), frames);
                        }
                        Churn::BrkShrink(d) => {
                            let cur = p.mem.brk();
                            let new = cur.0.saturating_sub(*d).max(heap_base.0);
                            let _ = p.mem.set_brk(Vpn(new), frames);
                        }
                    }
                }
            })
            .unwrap();

        // Diff and inject the plan, exactly as the restorer does.
        let cur_vmas = kernel.process(pid).unwrap().mem.maps();
        let cur_brk = kernel.process(pid).unwrap().mem.brk();
        let diff = LayoutDiff::compute(&snap_vmas, snap_brk, &cur_vmas, cur_brk);
        let plan = diff.plan();
        assert_eq!(plan.len(), diff.syscall_count(), "case {case}");
        {
            let mut s = PtraceSession::attach(&mut kernel, pid).unwrap();
            s.interrupt_all().unwrap();
            for sc in plan {
                s.inject(sc).unwrap();
            }
            s.detach().unwrap();
        }

        // The layout must now be equivalent to the snapshot: an empty
        // re-diff (merging-equivalent layouts diff to nothing).
        let proc = kernel.process(pid).unwrap();
        proc.mem.check_invariants().unwrap();
        let re = LayoutDiff::compute(&snap_vmas, snap_brk, &proc.mem.maps(), proc.mem.brk());
        assert!(re.is_empty(), "case {case}: re-diff not empty: {re:?}");
    }
}

use gh_bench::scaling::legacy_diff;
use gh_mem::{Vma, VmaKind};

/// A random address-ordered, non-overlapping VMA list over a small
/// window: touching and gapped neighbours, every kind (heap included,
/// which the diff must skip), several permission sets.
fn random_layout(rng: &mut DetRng) -> Vec<Vma> {
    let mut out = Vec::new();
    let mut at = rng.next_below(8);
    while at < 360 {
        let len = 1 + rng.next_below(24);
        out.push(Vma::new(
            PageRange::at(Vpn(at), len),
            random_perms(rng),
            random_kind(rng),
        ));
        at += len
            + if rng.next_below(2) == 0 {
                0
            } else {
                rng.next_below(12)
            };
    }
    out
}

fn random_perms(rng: &mut DetRng) -> Perms {
    [Perms::RW, Perms::R, Perms::RX, Perms::NONE][rng.next_below(4) as usize]
}

fn random_kind(rng: &mut DetRng) -> VmaKind {
    match rng.next_below(7) {
        0 => VmaKind::Heap,
        1 => VmaKind::Stack,
        2 => VmaKind::Guard,
        3 => VmaKind::File("liba.so".into()),
        4 => VmaKind::File("libb.so".into()),
        _ => VmaKind::Anon,
    }
}

/// `layout` after one request's worth of churn: regions dropped, split,
/// shrunk, re-protected or re-kinded, and new ones mapped into gaps.
fn churned(layout: &[Vma], rng: &mut DetRng) -> Vec<Vma> {
    let mut out: Vec<Vma> = Vec::new();
    for v in layout {
        let (s, e) = (v.range.start.0, v.range.end.0);
        match rng.next_below(8) {
            0 => {} // unmapped
            1 if e - s > 1 => {
                // Split, the upper part re-protected.
                let mid = s + 1 + rng.next_below(e - s - 1);
                out.push(Vma::new(
                    PageRange::new(Vpn(s), Vpn(mid)),
                    v.perms,
                    v.kind.clone(),
                ));
                out.push(Vma::new(
                    PageRange::new(Vpn(mid), Vpn(e)),
                    random_perms(rng),
                    v.kind.clone(),
                ));
            }
            2 if e - s > 1 => {
                let cut = 1 + rng.next_below(e - s - 1);
                out.push(Vma::new(
                    PageRange::new(Vpn(s), Vpn(e - cut)),
                    v.perms,
                    v.kind.clone(),
                ));
            }
            3 => out.push(Vma::new(v.range, random_perms(rng), v.kind.clone())),
            4 => out.push(Vma::new(v.range, v.perms, random_kind(rng))),
            _ => out.push(v.clone()),
        }
    }
    // New mappings in the gaps (touching their neighbours or not).
    let mut with_new: Vec<Vma> = Vec::new();
    let mut prev_end = 0u64;
    for v in out {
        if v.range.start.0 > prev_end && rng.next_below(3) == 0 {
            let room = v.range.start.0 - prev_end;
            let start = prev_end + rng.next_below(room);
            let len = 1 + rng.next_below(v.range.start.0 - start);
            with_new.push(Vma::new(
                PageRange::at(Vpn(start), len),
                random_perms(rng),
                random_kind(rng),
            ));
        }
        prev_end = v.range.end.0;
        with_new.push(v);
    }
    with_new
}

/// Diff oracle: the merge `LayoutDiff::compute` (fed borrowed iterators,
/// as the restorer does) equals the retained boundary sweep
/// `gh_bench::scaling::legacy_diff` on random layout pairs — every
/// delta list, the `brk` delta, and the compiled syscall plan.
#[test]
fn merge_diff_equals_the_reference_sweep() {
    for case in 0..2000u64 {
        let mut rng = DetRng::new(0xD1FF_0AC1 ^ case);
        let snap = random_layout(&mut rng);
        let cur = if rng.next_below(3) == 0 {
            random_layout(&mut rng)
        } else {
            churned(&snap, &mut rng)
        };
        let (snap_brk, cur_brk) = (Vpn(rng.next_below(4)), Vpn(rng.next_below(4)));
        let merge = LayoutDiff::compute(snap.iter(), snap_brk, cur.iter(), cur_brk);
        let reference = legacy_diff(&snap, snap_brk, &cur, cur_brk);
        let ctx = format!("case {case}");
        assert_eq!(merge.to_munmap, reference.to_munmap, "{ctx}: munmaps");
        assert_eq!(merge.to_remap, reference.to_remap, "{ctx}: remaps");
        assert_eq!(merge.to_mprotect, reference.to_mprotect, "{ctx}: mprotects");
        assert_eq!(merge.brk, reference.brk, "{ctx}: brk");
        assert_eq!(merge.plan(), reference.plan(), "{ctx}: plan");
        assert_eq!(merge.syscall_count(), reference.syscall_count(), "{ctx}");
    }
}
