//! EP: embarrassingly-parallel Gaussian pairs (NPB EP shape), as the
//! simulator models it (`model::ep`): the suite's negative control for
//! ARCS, with nothing to tune.

/// Per-class pair counts (log₂), scaled down from NPB's 2²⁴…2³² so the
/// smoke classes run in milliseconds.
pub fn ep_log2_pairs(class: super::Class) -> u32 {
    match class {
        super::Class::S => 14,
        super::Class::W => 16,
        super::Class::A => 18,
        super::Class::B => 20,
        super::Class::C => 22,
    }
}
