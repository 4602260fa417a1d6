//! Differential oracle: hinted `mmap` placement vs the linear walk.
//!
//! `AddressSpace::mmap` starts its top-down free-gap search at a hint
//! instead of `mmap_top`. Two spaces receive the same random history of
//! `mmap`, `mmap_fixed`, `munmap`, `mprotect`, brk grow/shrink, `fork`
//! and `release_all`; where one calls `mmap`, the other maps the address
//! a plain walk from `mmap_top` over its own VMAs picks (a test-only copy
//! of the unhinted search) with `mmap_fixed`. Every returned address,
//! every result and the whole VMA map must agree after every step.

use gh_sim::DetRng;

use gh_mem::{AddressSpace, FrameTable, PageRange, Perms, SpaceConfig, VmaKind, Vpn};

/// The unhinted search: the top of the highest free gap below
/// `mmap_top` that holds `len` pages, walking every VMA from the top.
fn linear_find_free(space: &AddressSpace, len: u64) -> Option<PageRange> {
    if len == 0 {
        return None;
    }
    let top = space.config().mmap_top.0;
    let below: Vec<_> = space
        .vmas_iter()
        .filter(|v| v.range.start.0 < top)
        .collect();
    let mut ceiling = top;
    for vma in below.iter().rev() {
        let gap_start = vma.range.end.0;
        if gap_start < ceiling && ceiling - gap_start >= len {
            return Some(PageRange::new(Vpn(ceiling - len), Vpn(ceiling)));
        }
        ceiling = ceiling.min(vma.range.start.0);
    }
    (ceiling >= len).then(|| PageRange::new(Vpn(ceiling - len), Vpn(ceiling)))
}

/// The hinted space and its linear-walk twin.
struct Twins {
    hinted: AddressSpace,
    fh: FrameTable,
    linear: AddressSpace,
    fl: FrameTable,
}

impl Twins {
    fn new() -> Twins {
        let mut fh = FrameTable::new();
        let hinted = AddressSpace::new(SpaceConfig::default(), &mut fh);
        let mut fl = FrameTable::new();
        let linear = AddressSpace::new(SpaceConfig::default(), &mut fl);
        Twins {
            hinted,
            fh,
            linear,
            fl,
        }
    }

    fn mmap(&mut self, len: u64, perms: Perms, kind: VmaKind, ctx: &str) {
        let got = self.hinted.mmap(len, perms, kind.clone()).ok();
        let want = linear_find_free(&self.linear, len);
        if let Some(r) = want {
            self.linear.mmap_fixed(r, perms, kind).unwrap();
        }
        assert_eq!(got, want, "{ctx}: mmap({len}) placement");
    }

    fn assert_equiv(&self, ctx: &str) {
        assert_eq!(self.hinted.maps(), self.linear.maps(), "{ctx}: vma maps");
        assert_eq!(self.hinted.brk(), self.linear.brk(), "{ctx}: brk");
        assert_eq!(
            self.hinted.mapped_pages(),
            self.linear.mapped_pages(),
            "{ctx}: mapped pages"
        );
        self.hinted.check_invariants().unwrap();
        self.linear.check_invariants().unwrap();
    }
}

/// A page near the mmap area: mostly inside the most recently placed
/// mappings, sometimes above `mmap_top` or in the stack.
fn near(rng: &mut DetRng, space: &AddressSpace) -> Vpn {
    let top = space.config().mmap_top.0;
    match rng.next_below(8) {
        0 => Vpn(top - 8 + rng.next_below(16)),
        1 => Vpn(space.config().stack_top.0 - 1 - rng.next_below(40)),
        _ => {
            let lowest = space
                .vmas_iter()
                .map(|v| v.range.start.0)
                .find(|&s| s < top && s > top / 2)
                .unwrap_or(top - 64);
            Vpn(lowest + rng.next_below(top + 4 - lowest))
        }
    }
}

#[test]
fn hinted_mmap_places_like_the_linear_walk() {
    let kinds = [VmaKind::Anon, VmaKind::File("libx.so".into())];
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x91AC_E000 ^ case);
        let mut t = Twins::new();
        let heap_base = t.hinted.config().heap_base;
        for step in 0..400u32 {
            let ctx = format!("case {case} step {step}");
            match rng.next_below(16) {
                // Same-size runs (a runtime's arena churn) and mixed sizes.
                0..=4 => {
                    let len = if rng.next_below(2) == 0 {
                        32
                    } else {
                        1 + rng.next_below(96)
                    };
                    let perms = if rng.next_below(4) == 0 {
                        Perms::R
                    } else {
                        Perms::RW
                    };
                    let kind = kinds[rng.next_below(2) as usize].clone();
                    t.mmap(len, perms, kind, &ctx);
                }
                5 => {
                    let r = PageRange::at(near(&mut rng, &t.hinted), 1 + rng.next_below(40));
                    let a = t.hinted.mmap_fixed(r, Perms::RW, VmaKind::Anon);
                    let b = t.linear.mmap_fixed(r, Perms::RW, VmaKind::Anon);
                    assert_eq!(a, b, "{ctx}: mmap_fixed");
                }
                6..=9 => {
                    let r = PageRange::at(near(&mut rng, &t.hinted), 1 + rng.next_below(80));
                    let a = t.hinted.munmap(r, &mut t.fh);
                    let b = t.linear.munmap(r, &mut t.fl);
                    assert_eq!(a, b, "{ctx}: munmap");
                }
                10 | 11 => {
                    let r = PageRange::at(near(&mut rng, &t.hinted), 1 + rng.next_below(20));
                    let perms = [Perms::R, Perms::RW, Perms::RX][rng.next_below(3) as usize];
                    let a = t.hinted.mprotect(r, perms);
                    let b = t.linear.mprotect(r, perms);
                    assert_eq!(a, b, "{ctx}: mprotect");
                }
                12 | 13 => {
                    let cur = t.hinted.brk().0;
                    let to = if rng.next_below(2) == 0 {
                        cur + 1 + rng.next_below(64)
                    } else {
                        cur.saturating_sub(1 + rng.next_below(64)).max(heap_base.0)
                    };
                    let a = t.hinted.set_brk(Vpn(to), &mut t.fh);
                    let b = t.linear.set_brk(Vpn(to), &mut t.fl);
                    assert_eq!(a, b, "{ctx}: brk");
                }
                14 => {
                    // Continue in the child: the hint is inherited.
                    let mut hc = t.hinted.fork(&mut t.fh);
                    let mut lc = t.linear.fork(&mut t.fl);
                    std::mem::swap(&mut t.hinted, &mut hc);
                    std::mem::swap(&mut t.linear, &mut lc);
                    hc.release_all(&mut t.fh);
                    lc.release_all(&mut t.fl);
                }
                _ => {
                    if rng.next_below(8) == 0 {
                        t.hinted.release_all(&mut t.fh);
                        t.linear.release_all(&mut t.fl);
                    }
                }
            }
            t.assert_equiv(&ctx);
        }
    }
}

/// The churn shape the hint is for: same-size arenas mapped top-down
/// and some unmapped again — every placement still matches the linear
/// walk, including arenas landing back in gaps an unmap opened above
/// the hint's floor.
#[test]
fn arena_churn_reuses_freed_gaps_like_the_linear_walk() {
    let mut t = Twins::new();
    let top = t.hinted.config().mmap_top.0;
    for round in 0..50u64 {
        for i in 0..18 {
            t.mmap(
                32,
                Perms::RW,
                VmaKind::Anon,
                &format!("round {round} mmap {i}"),
            );
        }
        let starts: Vec<Vpn> = t
            .hinted
            .vmas_iter()
            .map(|v| v.range.start)
            .filter(|s| s.0 < top)
            .collect();
        for (k, &s) in starts.iter().enumerate() {
            if (k as u64 + round).is_multiple_of(3) {
                let r = PageRange::at(s, 16 + (round % 5) * 12);
                t.hinted.munmap(r, &mut t.fh).unwrap();
                t.linear.munmap(r, &mut t.fl).unwrap();
            }
        }
        t.assert_equiv(&format!("round {round}"));
    }
}
