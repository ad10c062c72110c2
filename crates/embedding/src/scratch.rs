//! Incremental face counting for the embedding search.
//!
//! The genus heuristics score a candidate rotation by its face count.
//! Re-tracing every face per candidate costs O(darts) per move, which
//! is what made `hill_climb`/`anneal` quadratic-ish and capped the
//! searchable graph size at tens of nodes. [`FaceScratch`] maintains a
//! face labelling of the *current* rotation and scores a single-dart
//! move by retracing **only the faces the move can change**:
//!
//! Moving dart `m` within the cyclic order at `v = tail(m)` rewrites
//! `next`/`prev` only for darts leaving `v`. Face tracing steps via
//! `φ(d) = next[twin(d)]`, so `φ(d)` changes only where `twin(d)`
//! leaves `v` — i.e. only for the darts **entering** `v`. Hence:
//!
//! * every face that changes contains at least one entering dart, so
//!   the number of *removed* faces is the number of distinct current
//!   faces through the entering darts;
//! * every changed dart lies on a `φ'`-orbit through an entering dart
//!   (its face under `φ'` must cross `v` somewhere it differs), so
//!   tracing the new orbits from the entering darts finds every *added*
//!   face exactly once.
//!
//! The candidate count is `count − removed + added`, computed in
//! O(Σ|touched faces|) — O(degree · mean face length), independent of
//! graph size. On a 500-node mesh this is the difference between
//! microseconds and milliseconds per candidate (see
//! `benches/embedding.rs`, which gates the speedup in CI).

use pr_graph::{Dart, Graph};

use crate::{FaceStructure, RotationSystem};

/// What the last [`FaceScratch::eval_move`] did to the rotation, so
/// `commit`/`revert` know whether there is anything to finalise/undo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// No evaluation outstanding.
    None,
    /// The rotation holds the candidate; `saved_order` holds the undo.
    Moved,
    /// The proposed move was a no-op; the rotation is unchanged.
    Noop,
}

/// Reusable arena for incremental face-count evaluation.
///
/// Owns a face labelling of the rotation it was initialised (or last
/// committed) against. The evaluation protocol is strict: each
/// [`eval_move`](FaceScratch::eval_move) mutates the rotation into the
/// candidate state and **must** be followed by exactly one of
/// [`commit`](FaceScratch::commit) (keep the candidate) or
/// [`revert`](FaceScratch::revert) (undo it) before the next
/// evaluation.
#[derive(Debug, Clone)]
pub struct FaceScratch {
    /// Current face label per dart. Labels are distinct per face but
    /// otherwise arbitrary (they are never compared across commits).
    face_of: Vec<u32>,
    /// Current face count.
    count: usize,
    /// Next fresh face label.
    next_label: u32,
    /// Candidate face count from the pending evaluation.
    candidate: usize,
    pending: Pending,
    /// Per-eval visited stamps for new-orbit tracing.
    stamp: Vec<u64>,
    generation: u64,
    /// Darts of the traced new orbits, concatenated; `orbit_ends[i]`
    /// is the end offset of orbit `i` (for relabelling on commit).
    orbit_darts: Vec<Dart>,
    orbit_ends: Vec<usize>,
    /// Distinct-old-face workspace (≤ degree entries).
    old_faces: Vec<u32>,
    /// Undo buffer for the in-place rotation move.
    saved_order: Vec<Dart>,
    order_scratch: Vec<Dart>,
}

impl FaceScratch {
    /// Builds the arena by tracing all faces of `rot` once.
    pub fn new(graph: &Graph, rot: &RotationSystem) -> FaceScratch {
        let mut scratch = FaceScratch {
            face_of: Vec::new(),
            count: 0,
            next_label: 0,
            candidate: 0,
            pending: Pending::None,
            stamp: vec![0; graph.dart_count()],
            generation: 0,
            orbit_darts: Vec::new(),
            orbit_ends: Vec::new(),
            old_faces: Vec::new(),
            saved_order: Vec::new(),
            order_scratch: Vec::new(),
        };
        scratch.relabel_all(graph, rot);
        scratch
    }

    /// Face count of the current (committed) rotation.
    #[inline]
    pub fn face_count(&self) -> usize {
        self.count
    }

    /// Applies the move `(dart, offset)` to `rot` in place and returns
    /// the candidate's face count, retracing only the faces through
    /// the darts entering `tail(dart)`.
    ///
    /// The rotation is left in the candidate state; follow with
    /// [`commit`](FaceScratch::commit) or
    /// [`revert`](FaceScratch::revert).
    pub fn eval_move(
        &mut self,
        graph: &Graph,
        rot: &mut RotationSystem,
        dart: Dart,
        offset: usize,
    ) -> usize {
        debug_assert_eq!(self.pending, Pending::None, "eval without commit/revert");
        if !rot.move_dart_in_place(
            graph,
            dart,
            offset,
            &mut self.saved_order,
            &mut self.order_scratch,
        ) {
            self.pending = Pending::Noop;
            self.candidate = self.count;
            return self.count;
        }
        self.pending = Pending::Moved;
        self.generation += 1;
        self.orbit_darts.clear();
        self.orbit_ends.clear();
        self.old_faces.clear();

        let node = graph.dart_tail(dart);
        // Removed: distinct current faces through the entering darts.
        for &out in graph.darts_from(node) {
            self.old_faces.push(self.face_of[out.twin().index()]);
        }
        self.old_faces.sort_unstable();
        self.old_faces.dedup();
        let removed = self.old_faces.len();

        // Added: distinct φ'-orbits through the entering darts.
        let mut added = 0;
        for &out in graph.darts_from(node) {
            let start = out.twin();
            if self.stamp[start.index()] == self.generation {
                continue;
            }
            added += 1;
            let mut d = start;
            loop {
                self.stamp[d.index()] = self.generation;
                self.orbit_darts.push(d);
                d = rot.face_next(d);
                if d == start {
                    break;
                }
            }
            self.orbit_ends.push(self.orbit_darts.len());
        }

        self.candidate = self.count - removed + added;
        self.candidate
    }

    /// Keeps the pending candidate: relabels the darts on the traced
    /// new orbits and adopts the candidate count.
    pub fn commit(&mut self, graph: &Graph, rot: &RotationSystem) {
        match self.pending {
            Pending::None => panic!("commit without eval"),
            Pending::Noop => {}
            Pending::Moved => {
                if self.next_label as usize > u32::MAX as usize - self.orbit_ends.len() - 1 {
                    // Label space exhausted (needs ~4 billion committed
                    // faces): compact by retracing everything once.
                    self.count = self.candidate;
                    self.relabel_all(graph, rot);
                    self.pending = Pending::None;
                    return;
                }
                let mut begin = 0;
                for &end in &self.orbit_ends {
                    let label = self.next_label;
                    self.next_label += 1;
                    for &d in &self.orbit_darts[begin..end] {
                        self.face_of[d.index()] = label;
                    }
                    begin = end;
                }
                self.count = self.candidate;
            }
        }
        self.pending = Pending::None;
    }

    /// Undoes the pending candidate, restoring the rotation (and
    /// keeping the current face labelling, which still matches it).
    pub fn revert(&mut self, rot: &mut RotationSystem) {
        match self.pending {
            Pending::None => panic!("revert without eval"),
            Pending::Noop => {}
            Pending::Moved => rot.restore_order(&self.saved_order),
        }
        self.pending = Pending::None;
    }

    /// Rebuilds the face labelling from scratch (full trace).
    fn relabel_all(&mut self, graph: &Graph, rot: &RotationSystem) {
        let faces = FaceStructure::trace(graph, rot);
        self.face_of.clear();
        self.face_of.extend(graph.darts().map(|d| faces.face_of(d).0));
        self.count = faces.face_count();
        self.next_label = self.count as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn full_count(graph: &Graph, rot: &RotationSystem) -> usize {
        FaceStructure::trace(graph, rot).face_count()
    }

    /// Every dart's label class must match the traced face partition.
    fn assert_labels_consistent(graph: &Graph, rot: &RotationSystem, scratch: &FaceScratch) {
        let faces = FaceStructure::trace(graph, rot);
        assert_eq!(scratch.face_count(), faces.face_count());
        for a in graph.darts() {
            for b in graph.darts() {
                let same_label = scratch.face_of[a.index()] == scratch.face_of[b.index()];
                let same_face = faces.face_of(a) == faces.face_of(b);
                assert_eq!(same_label, same_face, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn eval_matches_full_retrace_on_every_move() {
        for g in [
            generators::complete(5, 1),
            generators::petersen(1),
            generators::isp_mesh(&generators::MeshParams::new(12, 1)),
        ] {
            let mut rot = RotationSystem::identity(&g);
            let mut scratch = FaceScratch::new(&g, &rot);
            for d in g.darts() {
                let deg = g.degree(g.dart_tail(d));
                for offset in 1..deg.max(1) {
                    let expected = full_count(&g, &rot.with_dart_moved(&g, d, offset));
                    let got = scratch.eval_move(&g, &mut rot, d, offset);
                    assert_eq!(got, expected, "move ({d}, {offset})");
                    scratch.revert(&mut rot);
                }
            }
        }
    }

    #[test]
    fn random_commit_revert_walk_stays_consistent() {
        let g = generators::complete(6, 1);
        let mut rot = RotationSystem::identity(&g);
        let mut scratch = FaceScratch::new(&g, &rot);
        let mut rng = StdRng::seed_from_u64(17);
        let darts: Vec<Dart> = g.darts().collect();
        for step in 0..400 {
            let d = darts[rng.gen_range(0..darts.len())];
            let deg = g.degree(g.dart_tail(d));
            let offset = rng.gen_range(1..deg);
            let candidate = scratch.eval_move(&g, &mut rot, d, offset);
            if rng.gen_bool(0.5) {
                scratch.commit(&g, &rot);
                assert_eq!(candidate, full_count(&g, &rot), "step {step}");
            } else {
                scratch.revert(&mut rot);
            }
            rot.validate(&g).unwrap();
            assert_eq!(scratch.face_count(), full_count(&g, &rot), "step {step}");
        }
        assert_labels_consistent(&g, &rot, &scratch);
    }

    #[test]
    fn noop_moves_are_harmless() {
        let g = generators::ring(5, 1);
        let mut rot = RotationSystem::identity(&g);
        let mut scratch = FaceScratch::new(&g, &rot);
        let d = g.darts().next().unwrap();
        let before = rot.clone();
        // Degree-2 node: any offset is a no-op.
        assert_eq!(scratch.eval_move(&g, &mut rot, d, 1), scratch.face_count());
        scratch.commit(&g, &rot);
        assert_eq!(rot, before);
        assert_eq!(scratch.eval_move(&g, &mut rot, d, 1), scratch.face_count());
        scratch.revert(&mut rot);
        assert_eq!(rot, before);
    }
}
