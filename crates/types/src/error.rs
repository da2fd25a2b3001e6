//! Error type shared across the workspace.

use std::fmt;

use crate::ids::{InstanceId, InstanceTypeId, TaskId};

/// Errors surfaced by the Eva crates.
#[derive(Debug, Clone, PartialEq)]
pub enum EvaError {
    /// A task demands more of some resource than any instance type offers.
    TaskUnschedulable {
        /// The offending task.
        task: TaskId,
        /// Human-readable explanation.
        reason: String,
    },
    /// An operation referenced an instance the cloud does not know about.
    UnknownInstance(InstanceId),
    /// An operation referenced an instance type outside the catalog.
    UnknownInstanceType(InstanceTypeId),
    /// An assignment would exceed an instance's capacity.
    CapacityExceeded {
        /// The overfull instance.
        instance: InstanceId,
        /// Human-readable explanation.
        reason: String,
    },
    /// The cloud provider rejected a provisioning request (e.g. its pool
    /// is at capacity).
    ProvisioningFailed {
        /// The requested type.
        instance_type: InstanceTypeId,
        /// Human-readable explanation.
        reason: String,
    },
    /// A trace or configuration file failed validation.
    InvalidInput(String),
    /// The exact solver hit its configured time limit without proving
    /// optimality (it still returns the incumbent through other channels).
    SolverTimeout {
        /// Seconds the solver ran for.
        elapsed_secs: f64,
    },
}

impl fmt::Display for EvaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaError::TaskUnschedulable { task, reason } => {
                write!(f, "task {task} cannot be scheduled: {reason}")
            }
            EvaError::UnknownInstance(id) => write!(f, "unknown instance {id}"),
            EvaError::UnknownInstanceType(id) => write!(f, "unknown instance type {id}"),
            EvaError::CapacityExceeded { instance, reason } => {
                write!(f, "capacity exceeded on {instance}: {reason}")
            }
            EvaError::ProvisioningFailed {
                instance_type,
                reason,
            } => {
                write!(f, "provisioning {instance_type} failed: {reason}")
            }
            EvaError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            EvaError::SolverTimeout { elapsed_secs } => {
                write!(f, "solver timed out after {elapsed_secs:.1}s")
            }
        }
    }
}

impl std::error::Error for EvaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;

    #[test]
    fn errors_display_context() {
        let e = EvaError::TaskUnschedulable {
            task: TaskId::new(JobId(1), 0),
            reason: "demands 16 GPUs".into(),
        };
        assert!(e.to_string().contains("job-1/t0"));
        assert!(e.to_string().contains("16 GPUs"));

        let e = EvaError::SolverTimeout { elapsed_secs: 30.0 };
        assert!(e.to_string().contains("30.0s"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&EvaError::InvalidInput("x".into()));
    }
}
