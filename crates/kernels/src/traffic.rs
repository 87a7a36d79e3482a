//! The charging discipline connecting kernels to the memory model.
//!
//! A compute kernel in this reproduction does two things for every data
//! block it touches: it performs the *real* arithmetic on the real
//! buffer, and it *charges* the bytes it streams against the bandwidth
//! regulator of the node the block currently resides on. The charge is
//! what the paper's hardware does implicitly: a task whose block sits
//! in DDR4 draws on a ~4x slower, heavily contended pipe.
//!
//! Kernels charge against the node reported by their held
//! [`hetmem::AccessGuard`] — residency is pinned for the duration of
//! the access, so the charge can never hit the wrong node mid-move.

use hetmem::{AccessGuard, Memory};

/// Charge `read_bytes` of read traffic and `write_bytes` of write
/// traffic for the block behind `guard`, at its current node.
pub fn charge_guard(mem: &Memory, guard: &AccessGuard<'_>, read_bytes: u64, write_bytes: u64) {
    let node = guard.node();
    if read_bytes > 0 {
        mem.regulator(node).charge(read_bytes);
    }
    if write_bytes > 0 {
        mem.regulator(node).charge_write(write_bytes);
    }
}

/// Charge one full read pass plus one full write pass over the block —
/// the streaming profile of an in-place stencil update.
pub fn charge_update_pass(mem: &Memory, guard: &AccessGuard<'_>) {
    let bytes = guard.len() as u64;
    charge_guard(mem, guard, bytes, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::{AccessMode, Topology, VirtualClock, DDR4, HBM};
    use std::sync::Arc;

    fn mem() -> Arc<Memory> {
        Memory::with_clock(Topology::knl_flat_scaled(), Arc::new(VirtualClock::new()))
    }

    #[test]
    fn charges_land_on_the_resident_node() {
        let m = mem();
        let id = m
            .registry()
            .register(m.alloc_on_node(4096, DDR4).unwrap(), "t");
        {
            let g = m.registry().access(id, AccessMode::ReadOnly);
            charge_guard(&m, &g, g.len() as u64, 0);
        }
        assert_eq!(m.stats().nodes[DDR4.index()].bytes_charged, 4096);
        assert_eq!(m.stats().nodes[HBM.index()].bytes_charged, 0);
    }

    #[test]
    fn update_pass_charges_read_and_write() {
        let m = mem();
        let id = m
            .registry()
            .register(m.alloc_on_node(1000, HBM).unwrap(), "t");
        {
            let mut g = m.registry().access(id, AccessMode::ReadWrite);
            charge_update_pass(&m, &g);
            g.bytes_mut()[0] = 1;
        }
        assert_eq!(m.stats().nodes[HBM.index()].bytes_charged, 2000);
    }

    #[test]
    fn slow_node_charge_takes_about_4x_longer() {
        let m = mem();
        let clock = Arc::clone(m.clock());
        let a = m
            .registry()
            .register(m.alloc_on_node(1 << 20, DDR4).unwrap(), "a");
        let b = m
            .registry()
            .register(m.alloc_on_node(1 << 20, HBM).unwrap(), "b");
        let t0 = clock.now();
        {
            let g = m.registry().access(a, AccessMode::ReadOnly);
            charge_guard(&m, &g, g.len() as u64, 0);
        }
        let t_ddr = clock.now() - t0;
        let t1 = clock.now();
        {
            let g = m.registry().access(b, AccessMode::ReadOnly);
            charge_guard(&m, &g, g.len() as u64, 0);
        }
        let t_hbm = clock.now() - t1;
        let ratio = t_ddr as f64 / t_hbm as f64;
        assert!(
            (3.5..6.0).contains(&ratio),
            "expected ~4.67x ratio, got {ratio}"
        );
    }
}
