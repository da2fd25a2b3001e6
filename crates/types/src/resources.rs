//! Multi-dimensional resource vectors.
//!
//! Eva schedules over three resource dimensions — GPU, CPU (vCPU), and RAM —
//! matching the demand vectors `[g, c, m]` users submit in the paper (§5).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// The resource dimensions Eva schedules over (set `R` in the ILP of §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Discrete accelerator count.
    Gpu,
    /// Virtual CPU count.
    Cpu,
    /// Memory in mebibytes.
    RamMb,
}

impl ResourceKind {
    /// All resource kinds in a fixed order.
    pub const ALL: [ResourceKind; 3] = [ResourceKind::Gpu, ResourceKind::Cpu, ResourceKind::RamMb];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Gpu => write!(f, "GPU"),
            ResourceKind::Cpu => write!(f, "CPU"),
            ResourceKind::RamMb => write!(f, "RAM(MB)"),
        }
    }
}

/// A demand or capacity across the three resource dimensions.
///
/// Arithmetic is saturating on subtraction so that "remaining capacity"
/// computations never underflow; additions use plain (checked-in-debug)
/// arithmetic since real clusters never approach `u64::MAX` MB of RAM.
///
/// # Examples
///
/// ```
/// use eva_types::ResourceVector;
///
/// let cap = ResourceVector::new(4, 16, 244 * 1024);
/// let used = ResourceVector::new(2, 8, 24 * 1024);
/// let free = cap - used;
/// assert_eq!(free, ResourceVector::new(2, 8, 220 * 1024));
/// assert!(ResourceVector::new(1, 4, 10_240).fits_within(&free));
/// assert!(!ResourceVector::new(3, 1, 0).fits_within(&free));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    /// GPU count.
    pub gpu: u32,
    /// vCPU count.
    pub cpu: u32,
    /// RAM in mebibytes.
    pub ram_mb: u64,
}

impl ResourceVector {
    /// The zero vector (used for the ghost instance type of §4.1).
    pub const ZERO: ResourceVector = ResourceVector {
        gpu: 0,
        cpu: 0,
        ram_mb: 0,
    };

    /// Creates a new resource vector.
    pub const fn new(gpu: u32, cpu: u32, ram_mb: u64) -> Self {
        ResourceVector { gpu, cpu, ram_mb }
    }

    /// Convenience constructor taking RAM in whole gibibytes.
    pub const fn with_ram_gb(gpu: u32, cpu: u32, ram_gb: u64) -> Self {
        ResourceVector {
            gpu,
            cpu,
            ram_mb: ram_gb * 1024,
        }
    }

    /// Returns the component for a given resource kind.
    pub fn get(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::Gpu => u64::from(self.gpu),
            ResourceKind::Cpu => u64::from(self.cpu),
            ResourceKind::RamMb => self.ram_mb,
        }
    }

    /// True when every component of `self` is ≤ the corresponding component
    /// of `capacity` — the capacity constraint of the ILP (§4.1).
    pub fn fits_within(&self, capacity: &ResourceVector) -> bool {
        self.gpu <= capacity.gpu && self.cpu <= capacity.cpu && self.ram_mb <= capacity.ram_mb
    }

    /// True when every component is zero.
    pub fn is_zero(&self) -> bool {
        *self == ResourceVector::ZERO
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, rhs: &ResourceVector) -> ResourceVector {
        ResourceVector {
            gpu: self.gpu.saturating_sub(rhs.gpu),
            cpu: self.cpu.saturating_sub(rhs.cpu),
            ram_mb: self.ram_mb.saturating_sub(rhs.ram_mb),
        }
    }

    /// Component-wise checked addition, `None` on overflow.
    pub fn checked_add(&self, rhs: &ResourceVector) -> Option<ResourceVector> {
        Some(ResourceVector {
            gpu: self.gpu.checked_add(rhs.gpu)?,
            cpu: self.cpu.checked_add(rhs.cpu)?,
            ram_mb: self.ram_mb.checked_add(rhs.ram_mb)?,
        })
    }

    /// Scales every component by an integer factor.
    pub fn scaled(&self, factor: u32) -> ResourceVector {
        ResourceVector {
            gpu: self.gpu * factor,
            cpu: self.cpu * factor,
            ram_mb: self.ram_mb * u64::from(factor),
        }
    }

    /// Fraction of `capacity` used per dimension, skipping zero-capacity
    /// dimensions. Used for the resource-allocation metric (§6.1).
    pub fn utilization_against(&self, capacity: &ResourceVector) -> [Option<f64>; 3] {
        let frac = |used: u64, cap: u64| {
            if cap == 0 {
                None
            } else {
                Some(used as f64 / cap as f64)
            }
        };
        [
            frac(u64::from(self.gpu), u64::from(capacity.gpu)),
            frac(u64::from(self.cpu), u64::from(capacity.cpu)),
            frac(self.ram_mb, capacity.ram_mb),
        ]
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;

    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            gpu: self.gpu + rhs.gpu,
            cpu: self.cpu + rhs.cpu,
            ram_mb: self.ram_mb + rhs.ram_mb,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;

    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        *self = *self - rhs;
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}g, {}c, {}MB]", self.gpu, self.cpu, self.ram_mb)
    }
}

impl std::iter::Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |acc, v| acc + v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_within_is_componentwise() {
        let cap = ResourceVector::new(1, 4, 61 * 1024);
        assert!(ResourceVector::new(1, 4, 61 * 1024).fits_within(&cap));
        assert!(ResourceVector::new(0, 0, 0).fits_within(&cap));
        assert!(!ResourceVector::new(2, 1, 1).fits_within(&cap));
        assert!(!ResourceVector::new(0, 5, 1).fits_within(&cap));
        assert!(!ResourceVector::new(0, 0, 62 * 1024).fits_within(&cap));
    }

    #[test]
    fn saturating_sub_never_underflows() {
        let a = ResourceVector::new(1, 2, 3);
        let b = ResourceVector::new(5, 5, 5);
        assert_eq!(a.saturating_sub(&b), ResourceVector::ZERO);
        assert_eq!(b.saturating_sub(&a), ResourceVector::new(4, 3, 2));
    }

    #[test]
    fn add_and_sum() {
        let vs = [ResourceVector::new(1, 2, 3), ResourceVector::new(4, 5, 6)];
        let total: ResourceVector = vs.into_iter().sum();
        assert_eq!(total, ResourceVector::new(5, 7, 9));
    }

    #[test]
    fn utilization_skips_zero_capacity() {
        let cap = ResourceVector::new(0, 8, 32 * 1024);
        let used = ResourceVector::new(0, 4, 16 * 1024);
        let u = used.utilization_against(&cap);
        assert_eq!(u[0], None);
        assert_eq!(u[1], Some(0.5));
        assert_eq!(u[2], Some(0.5));
    }

    #[test]
    fn get_matches_fields() {
        let v = ResourceVector::new(2, 8, 1024);
        assert_eq!(v.get(ResourceKind::Gpu), 2);
        assert_eq!(v.get(ResourceKind::Cpu), 8);
        assert_eq!(v.get(ResourceKind::RamMb), 1024);
    }

    #[test]
    fn scaled_multiplies_all_components() {
        let v = ResourceVector::new(1, 4, 10);
        assert_eq!(v.scaled(3), ResourceVector::new(3, 12, 30));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ResourceVector::new(1, 4, 24).to_string(), "[1g, 4c, 24MB]");
    }
}
