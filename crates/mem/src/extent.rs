//! The extent-based page table.
//!
//! Instead of one map entry per present page, [`PageTable`] keeps
//! *extents*: maximal runs of contiguous present pages sharing one
//! [`PteFlags`] value. Frames stay per-page (each page owns its
//! refcounted frame, exactly as before), stored in flat 512-page chunks
//! so extent splits and merges never copy frame arrays.
//!
//! Why it matters: between two tracker re-arms, the flag state of a
//! function process is "everything armed, except the D pages it
//! dirtied" — a handful of extents plus `O(D)` splits. Every whole-table
//! flag transform (`clear_refs`, uffd arm/disarm, CoW marking) is
//! therefore `O(extents)` instead of `O(present)`, and capture walks
//! `O(extents)` runs instead of `O(present)` map entries.
//!
//! Invariants (checked by `AddressSpace::check_invariants`):
//! - extents are sorted, non-empty and non-overlapping;
//! - no two adjacent extents have equal flags (maximality);
//! - every page inside an extent has a frame slot in its chunk, and
//!   chunk occupancy equals the number of covering extent pages.

use std::collections::{BTreeMap, HashMap};

use crate::addr::{PageRange, Vpn};
use crate::batch::TouchItem;
use crate::frame::FrameId;
use crate::pte::{Pte, PteFlags};

/// What [`PageTable::touch_walk`] should do with one batch item, decided
/// by the fault logic in `space.rs`.
pub(crate) enum BatchDecision {
    /// Leave the page untouched (the per-item error path: the caller's
    /// loop equivalent is `let _ = touch(...)` on an unmapped or
    /// permission-denied page).
    Skip,
    /// Install an absent page (minor fault) with this frame and flags.
    Insert { frame: FrameId, flags: PteFlags },
    /// Update a present page: optionally replace its frame (CoW copy /
    /// unshare) and set its flags (which may equal the old flags).
    Update {
        frame: Option<FrameId>,
        flags: PteFlags,
    },
}

/// Accumulates `(start, len, flags)` runs in address order, merging
/// adjacent equal-flag pushes so the output is maximal by construction.
#[derive(Default)]
struct RunBuilder {
    runs: Vec<(u64, ExtentMeta)>,
}

impl RunBuilder {
    #[inline]
    fn push(&mut self, start: u64, len: u64, flags: PteFlags) {
        if let Some((ls, lm)) = self.runs.last_mut() {
            debug_assert!(*ls + lm.len <= start, "out-of-order run push");
            if *ls + lm.len == start && lm.flags == flags {
                lm.len += len;
                return;
            }
        }
        self.runs.push((start, ExtentMeta { len, flags }));
    }

    /// Re-flags the most recently pushed page (a duplicate batch item
    /// revising its own earlier decision).
    fn amend_last_page(&mut self, flags: PteFlags) {
        let (ls, lm) = self.runs.last_mut().expect("amend on empty builder");
        if lm.flags == flags {
            return;
        }
        let vpn = *ls + lm.len - 1;
        if lm.len == 1 {
            self.runs.pop();
        } else {
            lm.len -= 1;
        }
        self.push(vpn, 1, flags);
    }
}

/// Pages per frame chunk.
const CHUNK_PAGES: u64 = 512;

/// Metadata of one extent (the frames live in the chunk store).
#[derive(Clone, Copy, Debug)]
struct ExtentMeta {
    /// Pages in the run.
    len: u64,
    /// Uniform flags of every page in the run.
    flags: PteFlags,
}

/// A 512-page frame chunk.
#[derive(Clone, Debug)]
struct Chunk {
    /// Occupied slots (pages covered by some extent).
    used: u32,
    /// Frame per page slot; slots outside extents are garbage.
    frames: Box<[FrameId; CHUNK_PAGES as usize]>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            used: 0,
            frames: Box::new([FrameId(u64::MAX); CHUNK_PAGES as usize]),
        }
    }
}

/// Extent-based page table: flag extents + chunked per-page frames.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageTable {
    /// Extents keyed by start vpn.
    extents: BTreeMap<u64, ExtentMeta>,
    /// Frame storage, keyed by `vpn / 512`.
    chunks: HashMap<u64, Chunk>,
    /// Present pages (Σ extent lens).
    present: u64,
}

impl PageTable {
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Present pages.
    pub fn len(&self) -> u64 {
        self.present
    }

    /// Number of extents.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// The extent containing `vpn`, as `(start, len, flags)`.
    fn extent_at(&self, vpn: u64) -> Option<(u64, ExtentMeta)> {
        self.extents
            .range(..=vpn)
            .next_back()
            .map(|(&s, &m)| (s, m))
            .filter(|(s, m)| vpn < s + m.len)
    }

    /// Frame of `vpn`, assuming it is present.
    fn frame_slot(&self, vpn: u64) -> FrameId {
        self.chunks[&(vpn / CHUNK_PAGES)].frames[(vpn % CHUNK_PAGES) as usize]
    }

    fn set_slot(&mut self, vpn: u64, frame: FrameId, fresh: bool) {
        let chunk = self
            .chunks
            .entry(vpn / CHUNK_PAGES)
            .or_insert_with(Chunk::new);
        chunk.frames[(vpn % CHUNK_PAGES) as usize] = frame;
        if fresh {
            chunk.used += 1;
        }
    }

    fn clear_slot(&mut self, vpn: u64) -> FrameId {
        let key = vpn / CHUNK_PAGES;
        let chunk = self.chunks.get_mut(&key).expect("slot chunk");
        let frame = chunk.frames[(vpn % CHUNK_PAGES) as usize];
        chunk.used -= 1;
        if chunk.used == 0 {
            self.chunks.remove(&key);
        }
        frame
    }

    /// The PTE of `vpn`, by value.
    pub fn get(&self, vpn: Vpn) -> Option<Pte> {
        self.extent_at(vpn.0).map(|(_, m)| Pte {
            frame: self.frame_slot(vpn.0),
            flags: m.flags,
        })
    }

    /// True when `vpn` is present.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.extent_at(vpn.0).is_some()
    }

    /// Inserts a one-page extent, merging with equal-flag neighbors.
    /// Assumes the page is absent (splitting/removal happens first).
    fn insert_extent_merging(&mut self, vpn: u64, flags: PteFlags) {
        let mut start = vpn;
        let mut len = 1u64;
        // Merge with predecessor ending exactly at vpn.
        if let Some((&ps, &pm)) = self.extents.range(..vpn).next_back() {
            debug_assert!(ps + pm.len <= vpn, "insert into covered page");
            if ps + pm.len == vpn && pm.flags == flags {
                start = ps;
                len += pm.len;
                self.extents.remove(&ps);
            }
        }
        // Merge with successor starting exactly at vpn + 1.
        if let Some((&ns, &nm)) = self.extents.range(vpn + 1..).next() {
            if ns == vpn + 1 && nm.flags == flags {
                len += nm.len;
                self.extents.remove(&ns);
            }
        }
        self.extents.insert(start, ExtentMeta { len, flags });
    }

    /// Installs `vpn` with the given frame and flags. The page must be
    /// absent.
    pub fn insert(&mut self, vpn: Vpn, frame: FrameId, flags: PteFlags) {
        debug_assert!(!self.contains(vpn), "inserting a present page");
        self.set_slot(vpn.0, frame, true);
        self.insert_extent_merging(vpn.0, flags);
        self.present += 1;
    }

    /// Removes `vpn`, returning its frame.
    pub fn remove(&mut self, vpn: Vpn) -> Option<FrameId> {
        let (start, meta) = self.extent_at(vpn.0)?;
        self.extents.remove(&start);
        if vpn.0 > start {
            self.extents.insert(
                start,
                ExtentMeta {
                    len: vpn.0 - start,
                    flags: meta.flags,
                },
            );
        }
        let end = start + meta.len;
        if vpn.0 + 1 < end {
            self.extents.insert(
                vpn.0 + 1,
                ExtentMeta {
                    len: end - vpn.0 - 1,
                    flags: meta.flags,
                },
            );
        }
        self.present -= 1;
        Some(self.clear_slot(vpn.0))
    }

    /// Removes every present page in `range`, passing each freed frame to
    /// `f`. Work is `O(log E + affected extents + removed pages)`.
    pub fn remove_range(&mut self, range: PageRange, mut f: impl FnMut(Vpn, FrameId)) {
        if range.is_empty() {
            return;
        }
        // Find extents overlapping the range (the predecessor may lap in).
        let first = self
            .extents
            .range(..range.start.0)
            .next_back()
            .filter(|(&s, m)| s + m.len > range.start.0)
            .map(|(&s, _)| s)
            .into_iter()
            .chain(
                self.extents
                    .range(range.start.0..range.end.0)
                    .map(|(&s, _)| s),
            )
            .collect::<Vec<u64>>();
        for s in first {
            let meta = self.extents.remove(&s).expect("collected key");
            let ext = PageRange::new(Vpn(s), Vpn(s + meta.len));
            let cut = ext.intersect(range);
            if ext.start.0 < cut.start.0 {
                self.extents.insert(
                    ext.start.0,
                    ExtentMeta {
                        len: cut.start.0 - ext.start.0,
                        flags: meta.flags,
                    },
                );
            }
            if cut.end.0 < ext.end.0 {
                self.extents.insert(
                    cut.end.0,
                    ExtentMeta {
                        len: ext.end.0 - cut.end.0,
                        flags: meta.flags,
                    },
                );
            }
            for vpn in cut.iter() {
                let frame = self.clear_slot(vpn.0);
                f(vpn, frame);
            }
            self.present -= cut.len();
        }
    }

    /// Replaces the frame of a present page (CoW copy), flags unchanged.
    pub fn set_frame(&mut self, vpn: Vpn, frame: FrameId) {
        debug_assert!(self.contains(vpn), "set_frame on absent page");
        self.set_slot(vpn.0, frame, false);
    }

    /// Sets the flags of one present page, splitting and re-merging
    /// extents as needed. `O(log E)`.
    pub fn set_flags(&mut self, vpn: Vpn, flags: PteFlags) {
        let (start, meta) = self.extent_at(vpn.0).expect("set_flags on absent page");
        if meta.flags == flags {
            return;
        }
        self.extents.remove(&start);
        if vpn.0 > start {
            self.extents.insert(
                start,
                ExtentMeta {
                    len: vpn.0 - start,
                    flags: meta.flags,
                },
            );
        }
        let end = start + meta.len;
        if vpn.0 + 1 < end {
            self.extents.insert(
                vpn.0 + 1,
                ExtentMeta {
                    len: end - vpn.0 - 1,
                    flags: meta.flags,
                },
            );
        }
        self.insert_extent_merging(vpn.0, flags);
    }

    /// Applies `f` to every extent's flags, then restores maximality by
    /// merging adjacent equal-flag extents. `O(extents)`: the merged runs
    /// come out sorted, so the new map is bulk-built bottom-up instead of
    /// one insert at a time.
    pub fn transform_flags(&mut self, mut f: impl FnMut(PteFlags) -> PteFlags) {
        let mut merged = RunBuilder::default();
        for (start, meta) in std::mem::take(&mut self.extents) {
            merged.push(start, meta.len, f(meta.flags));
        }
        self.extents = merged.runs.into_iter().collect();
    }

    /// Iterates `(range, flags)` extents in address order.
    pub fn extents(&self) -> impl Iterator<Item = (PageRange, PteFlags)> + '_ {
        self.extents
            .iter()
            .map(|(&s, m)| (PageRange::new(Vpn(s), Vpn(s + m.len)), m.flags))
    }

    /// Present pages coalesced into maximal runs irrespective of flags.
    /// `O(extents)`.
    pub fn present_runs(&self) -> Vec<PageRange> {
        let mut out: Vec<PageRange> = Vec::new();
        for (range, _) in self.extents() {
            match out.last_mut() {
                Some(last) if last.end == range.start => last.end = range.end,
                _ => out.push(range),
            }
        }
        out
    }

    /// Iterates `(vpn, pte)` over present pages in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.extents.iter().flat_map(move |(&s, m)| {
            (s..s + m.len).map(move |v| {
                (
                    Vpn(v),
                    Pte {
                        frame: self.frame_slot(v),
                        flags: m.flags,
                    },
                )
            })
        })
    }

    /// Appends the frames of the present pages of `range` (which must be
    /// fully present) to `out`, in address order. Chunk-wise: one
    /// `HashMap` probe per touched 512-page window instead of one per
    /// page, and each window lands via `extend_from_slice`, so a
    /// 2 MiB-aligned window is one memcpy of a whole chunk slice — the
    /// capture fast path.
    pub fn frames_in_into(&self, range: PageRange, out: &mut Vec<FrameId>) {
        let (lo, hi) = (range.start.0, range.end.0);
        if hi <= lo {
            return;
        }
        out.reserve((hi - lo) as usize);
        for key in lo / CHUNK_PAGES..(hi - 1) / CHUNK_PAGES + 1 {
            let w_lo = (key * CHUNK_PAGES).max(lo);
            let w_hi = ((key + 1) * CHUNK_PAGES).min(hi);
            out.extend_from_slice(
                &self.chunks[&key].frames
                    [(w_lo % CHUNK_PAGES) as usize..((w_hi - 1) % CHUNK_PAGES + 1) as usize],
            );
        }
    }

    /// One ordered cursor walk resolving a sorted batch of page touches.
    ///
    /// For every item (in order) the walk determines the page's current
    /// `(frame, flags)` — `None` when absent — and asks `decide` what to
    /// do. Two phases keep the cost at `O(batch + changed extents)`
    /// instead of `O(batch × log extents)`:
    ///
    /// 1. a **read-only cursor walk** over the extent map (one forward
    ///    iterator, no per-item probe) resolving every item; frame slots
    ///    are written in place, chunk-grouped (one `HashMap` probe per
    ///    touched 512-page chunk); pages whose *flags* change (or are
    ///    inserted) are recorded as sorted edit runs;
    /// 2. an **edit fold**: no edits (warm batches — the steady-state
    ///    common case) mutate the extent map not at all; sparse edits
    ///    splice in-place; dense edits (a re-armed write set fragmenting
    ///    the armed extents) bulk-rebuild the map from one sorted
    ///    iterator, which `BTreeMap` builds bottom-up in `O(n)`.
    ///
    /// `items` must be sorted by vpn; duplicates are allowed and see the
    /// state left by the previous decision for the same page.
    pub(crate) fn touch_walk(
        &mut self,
        items: &[TouchItem],
        mut decide: impl FnMut(&TouchItem, Option<(FrameId, PteFlags)>) -> BatchDecision,
    ) {
        if items.is_empty() {
            return;
        }
        debug_assert!(
            items.windows(2).all(|w| w[0].vpn.0 <= w[1].vpn.0),
            "touch_walk requires vpn-sorted items"
        );
        let lo = items[0].vpn.0;

        let PageTable {
            extents,
            chunks,
            present,
        } = self;

        // ---- Phase 1: read-only resolution ----
        // Forward extent cursor: seeded at the predecessor of the first
        // item, advanced monotonically (items are sorted, so the walk
        // never looks back).
        let seed = extents
            .range(..=lo)
            .next_back()
            .map(|(&s, _)| s)
            .unwrap_or(lo);
        let mut ext_iter = extents.range(seed..).peekable();
        // (start, end, flags) of the most recently passed extent.
        let mut cur_ext: Option<(u64, u64, PteFlags)> = None;
        // Pages whose flags changed or that were inserted, as maximal
        // sorted runs. Everything else leaves the extent map untouched.
        let mut edits = RunBuilder::default();
        // Duplicate-vpn carry: the previous item's vpn, resulting page
        // state, and whether that page already has an edit run as the
        // builder's last page (drives `amend_last_page`).
        type DupCarry = (u64, Option<(FrameId, PteFlags)>, bool);
        let mut last: Option<DupCarry> = None;

        let mut i = 0usize;
        while i < items.len() {
            let key = items[i].vpn.0 / CHUNK_PAGES;
            let mut j = i + 1;
            while j < items.len() && items[j].vpn.0 / CHUNK_PAGES == key {
                j += 1;
            }
            // One chunk probe per touched 512-page window. A window of
            // pure reads over an absent chunk creates and removes an
            // empty chunk — rare (absent windows come from minor-fault
            // sweeps, which insert) and cheap.
            let existed = chunks.contains_key(&key);
            let chunk = chunks.entry(key).or_insert_with(Chunk::new);
            let window = &items[i..j];
            for (k, it) in window.iter().enumerate() {
                let vpn = it.vpn.0;
                let slot = (vpn % CHUNK_PAGES) as usize;
                // `last` only matters across duplicate-vpn neighbours
                // (same vpn ⇒ same chunk ⇒ same window), so it is
                // maintained only around them — the common all-distinct
                // batch never writes it.
                let next_same = window.get(k + 1).is_some_and(|n| n.vpn.0 == vpn);
                let (cur, was_edited) = match last {
                    Some((lv, state, edited)) if lv == vpn => (state, edited),
                    _ => {
                        // Hot path: the cached extent still covers vpn
                        // (typical for dense read sweeps) — no peek.
                        let flags = match cur_ext {
                            Some((s, e, f)) if vpn >= s && vpn < e => Some(f),
                            _ => {
                                // Advance the cursor to the last extent
                                // starting at or before vpn.
                                while let Some(&(&s, m)) = ext_iter.peek() {
                                    if s <= vpn {
                                        cur_ext = Some((s, s + m.len, m.flags));
                                        ext_iter.next();
                                    } else {
                                        break;
                                    }
                                }
                                cur_ext
                                    .filter(|&(s, e, _)| vpn >= s && vpn < e)
                                    .map(|(_, _, f)| f)
                            }
                        };
                        (flags.map(|f| (chunk.frames[slot], f)), false)
                    }
                };
                match decide(it, cur) {
                    BatchDecision::Skip => {
                        if next_same {
                            last = Some((vpn, cur, was_edited));
                        }
                    }
                    BatchDecision::Insert { frame, flags } => {
                        debug_assert!(cur.is_none(), "Insert over a present page");
                        chunk.frames[slot] = frame;
                        chunk.used += 1;
                        *present += 1;
                        edits.push(vpn, 1, flags);
                        if next_same {
                            last = Some((vpn, Some((frame, flags)), true));
                        }
                    }
                    BatchDecision::Update { frame, flags } => {
                        let (old_frame, old_flags) = cur.expect("Update on an absent page");
                        let frame = frame.unwrap_or(old_frame);
                        if frame != old_frame {
                            chunk.frames[slot] = frame;
                        }
                        let changed = flags != old_flags;
                        if was_edited {
                            // Duplicate revising its own earlier edit.
                            edits.amend_last_page(flags);
                        } else if changed {
                            edits.push(vpn, 1, flags);
                        }
                        if next_same {
                            last = Some((vpn, Some((frame, flags)), was_edited || changed));
                        }
                    }
                }
            }
            if chunk.used == 0 && !existed {
                chunks.remove(&key);
            }
            i = j;
        }
        drop(ext_iter);

        // ---- Phase 2: fold the edits back into the extent map ----
        if edits.runs.is_empty() {
            return; // warm batch: the extent map is untouched
        }
        Self::apply_edit_runs(extents, edits.runs);
    }

    /// One ordered walk resolving every page of sorted, disjoint `runs` —
    /// the run-granular restore path ([`touch_walk`]'s simpler sibling:
    /// no duplicate handling, no `TouchItem` batch to materialize).
    ///
    /// For every page, ascending, `decide` sees the page's current
    /// `(frame, flags)` (`None` when absent) and returns a
    /// [`BatchDecision`]. One forward extent cursor serves every run, the
    /// frame chunks are probed once per touched 512-page window (runs
    /// sharing a window share the probe), and one extent edit fold lands
    /// all runs' flag edits — instead of a `BTreeMap` probe-and-splice
    /// per page. State outcomes are identical to applying the decisions
    /// page-at-a-time (runs are disjoint, so no run's decisions see
    /// another's edits).
    ///
    /// [`touch_walk`]: PageTable::touch_walk
    pub(crate) fn restore_walk(
        &mut self,
        runs: &[PageRange],
        mut decide: impl FnMut(Option<(FrameId, PteFlags)>) -> BatchDecision,
    ) {
        debug_assert!(
            runs.windows(2).all(|w| w[0].end.0 <= w[1].start.0),
            "restore_walk requires sorted, disjoint runs"
        );
        let mut runs = runs.iter().filter(|r| !r.is_empty()).peekable();
        let Some(first) = runs.peek() else {
            return;
        };
        let PageTable {
            extents,
            chunks,
            present,
        } = self;

        // Phase 1: forward extent cursor + per-window chunk probe, as in
        // `touch_walk` phase 1 (see there for the cursor invariants).
        let seed = extents
            .range(..=first.start.0)
            .next_back()
            .map_or(first.start.0, |(&s, _)| s);
        let mut ext_iter = extents.range(seed..).peekable();
        let mut cur_ext: Option<(u64, u64, PteFlags)> = None;
        let mut edits = RunBuilder::default();
        // The page being resolved and the end of its run.
        let (mut vpn, mut hi) = runs.next().map(|r| (r.start.0, r.end.0)).expect("peeked");
        'windows: loop {
            let key = vpn / CHUNK_PAGES;
            let existed = chunks.contains_key(&key);
            let chunk = chunks.entry(key).or_insert_with(Chunk::new);
            loop {
                let w_hi = ((key + 1) * CHUNK_PAGES).min(hi);
                while vpn < w_hi {
                    let slot = (vpn % CHUNK_PAGES) as usize;
                    let flags = match cur_ext {
                        Some((s, e, f)) if vpn >= s && vpn < e => Some(f),
                        _ => {
                            while let Some(&(&s, m)) = ext_iter.peek() {
                                if s <= vpn {
                                    cur_ext = Some((s, s + m.len, m.flags));
                                    ext_iter.next();
                                } else {
                                    break;
                                }
                            }
                            cur_ext
                                .filter(|&(s, e, _)| vpn >= s && vpn < e)
                                .map(|(_, _, f)| f)
                        }
                    };
                    let cur = flags.map(|f| (chunk.frames[slot], f));
                    match decide(cur) {
                        BatchDecision::Skip => {}
                        BatchDecision::Insert { frame, flags } => {
                            debug_assert!(cur.is_none(), "Insert over a present page");
                            chunk.frames[slot] = frame;
                            chunk.used += 1;
                            *present += 1;
                            edits.push(vpn, 1, flags);
                        }
                        BatchDecision::Update { frame, flags } => {
                            let (old_frame, old_flags) = cur.expect("Update on an absent page");
                            if let Some(f) = frame {
                                if f != old_frame {
                                    chunk.frames[slot] = f;
                                }
                            }
                            if flags != old_flags {
                                edits.push(vpn, 1, flags);
                            }
                        }
                    }
                    vpn += 1;
                }
                // Next page: the rest of this run (a new window), or the
                // next run — in this window if it starts there.
                let done = vpn == hi
                    && match runs.next() {
                        Some(r) => {
                            (vpn, hi) = (r.start.0, r.end.0);
                            false
                        }
                        None => true,
                    };
                if done || vpn / CHUNK_PAGES != key {
                    if chunk.used == 0 && !existed {
                        chunks.remove(&key);
                    }
                    if done {
                        break 'windows;
                    }
                    continue 'windows;
                }
            }
        }
        drop(ext_iter);

        // Phase 2: fold every run's edits back into the extent map at once.
        if edits.runs.is_empty() {
            return;
        }
        Self::apply_edit_runs(extents, edits.runs);
    }

    /// Replaces the flag coverage of every page in `edits` (sorted
    /// maximal runs; pages outside old coverage add new coverage),
    /// restoring extent maximality. Sparse edits splice in place
    /// (`O(edits × log E)`); dense edits rebuild the whole map from one
    /// sorted iterator (`O(E + edits)` with bottom-up bulk build).
    fn apply_edit_runs(extents: &mut BTreeMap<u64, ExtentMeta>, edits: Vec<(u64, ExtentMeta)>) {
        let w_lo = edits[0].0;
        let (le, lm) = *edits.last().expect("non-empty");
        let w_hi = le + lm.len; // exclusive end of the edit window

        // Old extents overlapping the window (predecessor may lap in).
        let first = extents
            .range(..w_lo)
            .next_back()
            .filter(|(&s, m)| s + m.len > w_lo)
            .map(|(&s, _)| s);
        let start_key = first.unwrap_or(w_lo);

        // Merge old coverage with the edit runs: edits win; old pages
        // (including parts lapping outside the window) copy through.
        let mut out = RunBuilder::default();
        {
            let mut olds = extents.range(start_key..w_hi).peekable();
            // Next uncopied page of the current old extent.
            let mut opos = olds.peek().map(|(&s, _)| s).unwrap_or(w_hi);
            let flush_old_below = |to: u64,
                                   olds: &mut std::iter::Peekable<
                std::collections::btree_map::Range<u64, ExtentMeta>,
            >,
                                   opos: &mut u64,
                                   out: &mut RunBuilder| {
                while let Some(&(&s, m)) = olds.peek() {
                    let end = s + m.len;
                    let from = (*opos).max(s);
                    if from >= to {
                        return;
                    }
                    let upto = end.min(to);
                    if from < upto {
                        out.push(from, upto - from, m.flags);
                    }
                    if upto == end {
                        olds.next();
                        *opos = olds.peek().map(|(&s, _)| s).unwrap_or(u64::MAX);
                    } else {
                        *opos = upto;
                        return;
                    }
                }
            };
            for &(es, em) in &edits {
                flush_old_below(es, &mut olds, &mut opos, &mut out);
                out.push(es, em.len, em.flags);
                // Skip old coverage the edit replaced.
                opos = opos.max(es + em.len);
                while let Some(&(&s, m)) = olds.peek() {
                    if s + m.len <= opos {
                        olds.next();
                        if let Some(&(&ns, _)) = olds.peek() {
                            opos = opos.max(ns);
                        }
                    } else {
                        break;
                    }
                }
            }
            flush_old_below(u64::MAX, &mut olds, &mut opos, &mut out);
        }
        let mut runs = out.runs;

        // Boundary maximality: merge with the untouched neighbours.
        let mut remove_pred = None;
        if let Some(&(fs, fm)) = runs.first() {
            if let Some((&ps, &pm)) = extents.range(..fs).next_back() {
                if ps + pm.len == fs && pm.flags == fm.flags && ps != start_key {
                    remove_pred = Some(ps);
                    runs[0] = (
                        ps,
                        ExtentMeta {
                            len: pm.len + fm.len,
                            flags: pm.flags,
                        },
                    );
                }
            }
        }
        let mut remove_succ = None;
        if let Some(&(ls, lm)) = runs.last() {
            let end = ls + lm.len;
            if let Some((&ns, &nm)) = extents.range(end..).next() {
                if ns == end && nm.flags == lm.flags {
                    remove_succ = Some(ns);
                    runs.last_mut().expect("non-empty").1.len += nm.len;
                }
            }
        }

        // Count the old entries being replaced.
        let replaced = extents.range(start_key..w_hi).count()
            + remove_pred.is_some() as usize
            + remove_succ.is_some() as usize;
        let churn = runs.len() + replaced;
        if churn * 8 >= extents.len() {
            // Dense: rebuild the whole map from one sorted iterator
            // (BTreeMap bulk-builds bottom-up). The window entries and
            // merged neighbours are skipped; `runs` splices in.
            let skip_lo = remove_pred.unwrap_or(start_key);
            let skip_hi = remove_succ.map(|s| s + 1).unwrap_or(w_hi);
            let rebuilt: BTreeMap<u64, ExtentMeta> = extents
                .range(..skip_lo)
                .map(|(&s, &m)| (s, m))
                .chain(runs.iter().copied())
                .chain(extents.range(skip_hi..).map(|(&s, &m)| (s, m)))
                .collect();
            *extents = rebuilt;
        } else {
            // Sparse: splice in place.
            let doomed: Vec<u64> = extents
                .range(start_key..w_hi)
                .map(|(&s, _)| s)
                .chain(remove_pred)
                .chain(remove_succ)
                .collect();
            for s in doomed {
                extents.remove(&s);
            }
            extents.extend(runs);
        }
    }

    /// Structural self-check: sorted, disjoint, non-empty, maximal
    /// extents; chunk occupancy matches extent coverage.
    pub fn check(&self) -> Result<(), String> {
        let mut prev: Option<(u64, ExtentMeta)> = None;
        let mut covered = 0u64;
        for (&start, meta) in &self.extents {
            if meta.len == 0 {
                return Err(format!("empty extent at {start:#x}"));
            }
            if let Some((ps, pm)) = prev {
                let pend = ps + pm.len;
                if start < pend {
                    return Err(format!("overlapping extents at {start:#x}"));
                }
                if start == pend && pm.flags == meta.flags {
                    return Err(format!(
                        "adjacent mergeable extents at {start:#x} ({:?})",
                        meta.flags
                    ));
                }
            }
            covered += meta.len;
            prev = Some((start, *meta));
        }
        if covered != self.present {
            return Err(format!(
                "present count {} != extent coverage {covered}",
                self.present
            ));
        }
        let chunk_used: u64 = self.chunks.values().map(|c| c.used as u64).sum();
        if chunk_used != self.present {
            return Err(format!(
                "chunk occupancy {chunk_used} != present {}",
                self.present
            ));
        }
        for (&start, meta) in &self.extents {
            for v in start..start + meta.len {
                let Some(chunk) = self.chunks.get(&(v / CHUNK_PAGES)) else {
                    return Err(format!("page {v:#x} has no frame chunk"));
                };
                if chunk.frames[(v % CHUNK_PAGES) as usize] == FrameId(u64::MAX) {
                    return Err(format!("page {v:#x} has no frame slot"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(bits: u8) -> PteFlags {
        PteFlags(bits).with(PteFlags::PRESENT)
    }

    #[test]
    fn insert_merges_into_maximal_extents() {
        let mut t = PageTable::new();
        for v in [10u64, 12, 11, 9, 13] {
            t.insert(Vpn(v), FrameId(v), flags(0));
            t.check().unwrap();
        }
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(Vpn(12)).unwrap().frame, FrameId(12));
        assert!(t.get(Vpn(14)).is_none());
    }

    #[test]
    fn differing_flags_do_not_merge() {
        let mut t = PageTable::new();
        t.insert(Vpn(5), FrameId(1), flags(0));
        t.insert(Vpn(6), FrameId(2), flags(2));
        t.insert(Vpn(7), FrameId(3), flags(0));
        assert_eq!(t.extent_count(), 3);
        t.check().unwrap();
    }

    #[test]
    fn set_flags_splits_and_remerges() {
        let mut t = PageTable::new();
        for v in 0..10u64 {
            t.insert(Vpn(v), FrameId(v), flags(0));
        }
        t.set_flags(Vpn(4), flags(2));
        assert_eq!(t.extent_count(), 3);
        t.check().unwrap();
        t.set_flags(Vpn(5), flags(2));
        assert_eq!(t.extent_count(), 3, "adjacent changed pages merge");
        t.check().unwrap();
        t.set_flags(Vpn(4), flags(0));
        t.set_flags(Vpn(5), flags(0));
        assert_eq!(t.extent_count(), 1, "restoring flags restores one run");
        t.check().unwrap();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn remove_splits() {
        let mut t = PageTable::new();
        for v in 0..8u64 {
            t.insert(Vpn(v), FrameId(v), flags(0));
        }
        assert_eq!(t.remove(Vpn(3)), Some(FrameId(3)));
        assert_eq!(t.extent_count(), 2);
        assert_eq!(t.len(), 7);
        assert!(t.get(Vpn(3)).is_none());
        t.check().unwrap();
        assert_eq!(t.remove(Vpn(3)), None);
    }

    #[test]
    fn remove_range_frees_exactly() {
        let mut t = PageTable::new();
        for v in 0..20u64 {
            if v != 10 {
                t.insert(Vpn(v), FrameId(v), flags(0));
            }
        }
        let mut freed = Vec::new();
        t.remove_range(PageRange::new(Vpn(5), Vpn(15)), |v, f| {
            freed.push((v.0, f.0))
        });
        assert_eq!(
            freed,
            (5..15)
                .filter(|&v| v != 10)
                .map(|v| (v, v))
                .collect::<Vec<_>>()
        );
        assert_eq!(t.len(), 10);
        t.check().unwrap();
    }

    #[test]
    fn transform_collapses_fragmentation() {
        let mut t = PageTable::new();
        for v in 0..100u64 {
            t.insert(Vpn(v), FrameId(v), flags(0));
        }
        for v in (0..100u64).step_by(7) {
            t.set_flags(Vpn(v), flags(2));
        }
        assert!(t.extent_count() > 20);
        t.transform_flags(|f| f.without(PteFlags(2)).with(PteFlags(4)));
        assert_eq!(t.extent_count(), 1, "uniform flags collapse to one run");
        t.check().unwrap();
    }

    #[test]
    fn iteration_and_runs() {
        let mut t = PageTable::new();
        for v in [1u64, 2, 3, 7, 8, 600] {
            t.insert(Vpn(v), FrameId(v * 10), flags(0));
        }
        t.set_flags(Vpn(2), flags(2));
        let vpns: Vec<u64> = t.iter().map(|(v, _)| v.0).collect();
        assert_eq!(vpns, vec![1, 2, 3, 7, 8, 600]);
        assert_eq!(
            t.present_runs(),
            vec![
                PageRange::new(Vpn(1), Vpn(4)),
                PageRange::new(Vpn(7), Vpn(9)),
                PageRange::new(Vpn(600), Vpn(601))
            ],
            "presence runs ignore flag splits"
        );
        let mut frames = Vec::new();
        t.frames_in_into(PageRange::new(Vpn(7), Vpn(9)), &mut frames);
        assert_eq!(frames.iter().map(|f| f.0).collect::<Vec<_>>(), vec![70, 80]);
    }
}
