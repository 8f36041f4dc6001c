//! STAMP **Labyrinth** — a multi-path 3-D maze router (paper §7.1).
//!
//! Threads pull (source, destination) pairs off a work list and connect
//! them through a shared uniform grid with a Lee-style breadth-first
//! expansion. Routing runs on a *private copy* of the grid; only the
//! final path is validated and published transactionally: every path
//! cell is checked to still be empty (`TM_EQ(cell, EMPTY)` — the
//! "isEmpty / isGarbage checks along the routing path" the paper
//! converts to `cmp`s) and then written with the path id.
//!
//! Two variants, matching Figures 1k–1n:
//!
//! * [`Variant::CopyInsideTx`] ("Labyrinth 1") — the grid snapshot and
//!   the BFS expansion run *inside* the transaction body, re-executed on
//!   every retry: long transactions, the configuration the paper
//!   evaluates first;
//! * [`Variant::CopyOutsideTx`] ("Labyrinth 2") — the optimisation of
//!   Ruan et al. \[32\]: snapshot + expansion move *outside* the
//!   transaction, which only validates and publishes the path; on abort
//!   the route is recomputed from a fresh snapshot.

use crate::driver::{run_fixed_work, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, CmpOp, Stm, TArray};

/// Grid cell: free.
pub const EMPTY: i64 = 0;
/// Grid cell: blocked.
pub const WALL: i64 = -1;

/// Which Labyrinth variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// "Labyrinth 1": grid copy + expansion inside the transaction.
    CopyInsideTx,
    /// "Labyrinth 2": grid copy + expansion outside the transaction
    /// (Ruan et al. \[32\]).
    CopyOutsideTx,
}

/// Maze configuration.
#[derive(Clone, Copy, Debug)]
pub struct LabyrinthConfig {
    /// Grid width.
    pub x: usize,
    /// Grid height.
    pub y: usize,
    /// Grid depth.
    pub z: usize,
    /// Routing pairs to connect.
    pub pairs: usize,
    /// Percent of cells pre-blocked as walls.
    pub wall_pct: u32,
    /// Copy placement (Labyrinth 1 vs 2).
    pub variant: Variant,
}

impl Default for LabyrinthConfig {
    fn default() -> Self {
        LabyrinthConfig {
            x: 32,
            y: 32,
            z: 3,
            pairs: 64,
            wall_pct: 10,
            variant: Variant::CopyInsideTx,
        }
    }
}

/// The shared maze.
pub struct Labyrinth {
    grid: TArray<i64>,
    config: LabyrinthConfig,
    /// Routing endpoints, fixed at construction.
    pairs: Vec<(usize, usize)>,
}

impl Labyrinth {
    /// Build the grid, carve walls, and draw routing endpoints on empty
    /// cells.
    pub fn new(stm: &Stm, config: LabyrinthConfig, seed: u64) -> Labyrinth {
        let cells = config.x * config.y * config.z;
        let grid = TArray::new(stm, cells, EMPTY);
        let mut rng = SplitMix64::new(seed);
        for i in 0..cells {
            if rng.below(100) < config.wall_pct as u64 {
                grid.write_now(stm, i, WALL);
            }
        }
        let mut pairs = Vec::with_capacity(config.pairs);
        let draw_empty = |rng: &mut SplitMix64| loop {
            let c = rng.index(cells);
            if grid.read_now(stm, c) == EMPTY {
                return c;
            }
        };
        for _ in 0..config.pairs {
            let a = draw_empty(&mut rng);
            let mut b = draw_empty(&mut rng);
            while b == a {
                b = draw_empty(&mut rng);
            }
            pairs.push((a, b));
        }
        Labyrinth {
            grid,
            config,
            pairs,
        }
    }

    /// Quiescent cell value (rendering / inspection).
    pub fn cell_now(&self, stm: &Stm, i: usize) -> i64 {
        self.grid.read_now(stm, i)
    }

    /// Number of routing pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Total number of grid cells.
    pub fn cells(&self) -> usize {
        self.config.x * self.config.y * self.config.z
    }

    fn neighbors(&self, cell: usize, out: &mut [usize; 6]) -> usize {
        let (x, y, z) = (
            cell % self.config.x,
            (cell / self.config.x) % self.config.y,
            cell / (self.config.x * self.config.y),
        );
        let mut n = 0;
        let push = |c: usize, out: &mut [usize; 6], n: &mut usize| {
            out[*n] = c;
            *n += 1;
        };
        if x > 0 {
            push(cell - 1, out, &mut n);
        }
        if x + 1 < self.config.x {
            push(cell + 1, out, &mut n);
        }
        if y > 0 {
            push(cell - self.config.x, out, &mut n);
        }
        if y + 1 < self.config.y {
            push(cell + self.config.x, out, &mut n);
        }
        if z > 0 {
            push(cell - self.config.x * self.config.y, out, &mut n);
        }
        if z + 1 < self.config.z {
            push(cell + self.config.x * self.config.y, out, &mut n);
        }
        n
    }

    /// Non-transactional snapshot of the grid (the "memory copy").
    fn snapshot(&self, stm: &Stm) -> Vec<i64> {
        (0..self.cells())
            .map(|i| self.grid.read_now(stm, i))
            .collect()
    }

    /// Lee expansion on a private snapshot; returns the cell path from
    /// `src` to `dst` (inclusive) if one exists through EMPTY cells.
    fn expand(&self, snap: &[i64], src: usize, dst: usize) -> Option<Vec<usize>> {
        if snap[src] != EMPTY || snap[dst] != EMPTY {
            return None; // an endpoint was grabbed by another path
        }
        let cells = self.cells();
        let mut dist = vec![u32::MAX; cells];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        let mut nbrs = [0usize; 6];
        while let Some(c) = queue.pop_front() {
            if c == dst {
                break;
            }
            let n = self.neighbors(c, &mut nbrs);
            for &nb in &nbrs[..n] {
                if dist[nb] == u32::MAX && snap[nb] == EMPTY {
                    dist[nb] = dist[c] + 1;
                    queue.push_back(nb);
                }
            }
        }
        if dist[dst] == u32::MAX {
            return None;
        }
        // Backtrace.
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            let n = self.neighbors(cur, &mut nbrs);
            let prev = nbrs[..n]
                .iter()
                .copied()
                .find(|&nb| dist[nb] != u32::MAX && dist[nb] + 1 == dist[cur])
                .expect("broken backtrace");
            path.push(prev);
            cur = prev;
        }
        path.reverse();
        Some(path)
    }

    /// Publish `path` under `id`: semantic emptiness checks plus writes.
    /// Fails with an explicit abort if any cell was grabbed concurrently
    /// (the caller then recomputes the route).
    fn publish(&self, tx: &mut semtm_core::Tx<'_>, path: &[usize], id: i64) -> Result<(), Abort> {
        for &cell in path {
            // isEmpty check — TM_EQ(cell, EMPTY)
            if !self.grid.cmp(tx, cell, CmpOp::Eq, EMPTY)? {
                return Err(Abort::explicit());
            }
        }
        for &cell in path {
            self.grid.write(tx, cell, id)?;
        }
        Ok(())
    }

    /// Route one pair; returns the published path, or `None` if the maze
    /// no longer admits one. `id` must be a unique positive path id.
    pub fn route(&self, stm: &Stm, pair_index: usize, id: i64) -> Option<Vec<usize>> {
        let (src, dst) = self.pairs[pair_index];
        match self.config.variant {
            Variant::CopyInsideTx => {
                // Labyrinth 1: snapshot + expansion re-run on every retry,
                // inside the transaction body.
                stm.atomic(|tx| {
                    let snap = self.snapshot(stm);
                    match self.expand(&snap, src, dst) {
                        None => Ok(None),
                        Some(path) => {
                            // An abort here retries the whole body, which
                            // re-snapshots and re-expands.
                            self.publish(tx, &path, id)?;
                            Ok(Some(path))
                        }
                    }
                })
            }
            Variant::CopyOutsideTx => {
                // Labyrinth 2: snapshot + expansion hoisted out; the
                // transaction only validates + publishes.
                loop {
                    let snap = self.snapshot(stm);
                    let path = self.expand(&snap, src, dst)?;
                    let published = stm.try_atomic(|tx| {
                        self.publish(tx, &path, id)?;
                        Ok(())
                    });
                    if published.is_ok() {
                        return Some(path);
                    }
                    // Any abort (conflict or stolen cell): re-route.
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Quiescent integrity over a set of published paths: each path's
    /// cells carry its id, ids never overlap, and consecutive path cells
    /// are grid-adjacent.
    pub fn verify(&self, stm: &Stm, routed: &[(i64, Vec<usize>)]) -> Result<(), String> {
        let mut owner = std::collections::HashMap::new();
        for (id, path) in routed {
            let mut nbrs = [0usize; 6];
            for (i, &cell) in path.iter().enumerate() {
                let v = self.grid.read_now(stm, cell);
                if v != *id {
                    return Err(format!("cell {cell} of path {id} holds {v}"));
                }
                if let Some(prev) = owner.insert(cell, *id) {
                    return Err(format!("cell {cell} owned by both {prev} and {id}"));
                }
                if i > 0 {
                    let n = self.neighbors(cell, &mut nbrs);
                    if !nbrs[..n].contains(&path[i - 1]) {
                        return Err(format!("path {id} not contiguous at {cell}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Measured run: route every pair, split across threads (fixed work,
/// Figures 1k–1n). Returns the run result; integrity is asserted.
pub fn run(stm: &Stm, config: LabyrinthConfig, threads: usize, seed: u64) -> RunResult {
    let maze = Labyrinth::new(stm, config, seed);
    let routed = std::sync::Mutex::new(Vec::new());
    let r = run_fixed_work(stm, threads, config.pairs as u64, seed, |_tid, i, _rng| {
        let id = i as i64 + 1;
        if let Some(path) = maze.route(stm, i as usize, id) {
            routed.lock().unwrap().push((id, path));
        }
    });
    let routed = routed.into_inner().unwrap();
    maze.verify(stm, &routed)
        .expect("labyrinth integrity violated");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 14).orec_count(1 << 10))
    }

    fn open_maze(variant: Variant) -> LabyrinthConfig {
        LabyrinthConfig {
            x: 8,
            y: 8,
            z: 2,
            pairs: 6,
            wall_pct: 0,
            variant,
        }
    }

    #[test]
    fn routes_connect_endpoints_both_variants() {
        for variant in [Variant::CopyInsideTx, Variant::CopyOutsideTx] {
            for alg in [Algorithm::SNOrec, Algorithm::STl2] {
                let s = stm(alg);
                let maze = Labyrinth::new(&s, open_maze(variant), 5);
                let mut routed = Vec::new();
                for i in 0..maze.pairs.len() {
                    if let Some(p) = maze.route(&s, i, i as i64 + 1) {
                        let (src, dst) = maze.pairs[i];
                        assert_eq!(p[0], src);
                        assert_eq!(*p.last().unwrap(), dst);
                        routed.push((i as i64 + 1, p));
                    }
                }
                assert!(!routed.is_empty(), "{alg} {variant:?}");
                maze.verify(&s, &routed).unwrap();
            }
        }
    }

    #[test]
    fn expansion_respects_walls() {
        let s = stm(Algorithm::SNOrec);
        let cfg = LabyrinthConfig {
            x: 5,
            y: 1,
            z: 1,
            pairs: 0,
            wall_pct: 0,
            variant: Variant::CopyOutsideTx,
        };
        let maze = Labyrinth::new(&s, cfg, 1);
        maze.grid.write_now(&s, 2, WALL); // block the only corridor
        let snap = maze.snapshot(&s);
        assert_eq!(maze.expand(&snap, 0, 4), None);
        maze.grid.write_now(&s, 2, EMPTY);
        let snap = maze.snapshot(&s);
        assert_eq!(maze.expand(&snap, 0, 4), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn published_paths_never_overlap_under_concurrency() {
        for variant in [Variant::CopyInsideTx, Variant::CopyOutsideTx] {
            let s = stm(Algorithm::STl2);
            let cfg = LabyrinthConfig {
                x: 12,
                y: 12,
                z: 2,
                pairs: 16,
                wall_pct: 5,
                variant,
            };
            let r = run(&s, cfg, 4, 33);
            assert_eq!(r.total_ops, 16, "{variant:?}");
        }
    }

    #[test]
    fn semantic_checks_are_compares() {
        let s = stm(Algorithm::SNOrec);
        let maze = Labyrinth::new(&s, open_maze(Variant::CopyOutsideTx), 9);
        for i in 0..maze.pairs.len() {
            maze.route(&s, i, i as i64 + 1);
        }
        let st = s.stats().committed;
        assert!(st.cmps > 0, "emptiness checks must be semantic");
        assert_eq!(st.reads, 0, "publication does no plain reads");
        assert!(st.writes > 0);
    }
}
