//! The device registry: the single constructor path for every simulated
//! device in the workspace.
//!
//! The paper characterizes a fixed device matrix — MI100, MI250X (as a
//! package and as a single GCD, since each GCD is a separate HIP
//! device), and the A100 — and every experiment, example, and test used
//! to construct those ad hoc (`Gpu::mi250x()`, `BlasHandle::
//! new_mi250x_gcd()`, …). [`DeviceRegistry`] replaces that: built-in
//! devices are addressed by [`DeviceId`], custom calibrations are
//! registered by name, and both hand out validated [`SimConfig`]s and
//! ready [`Gpu`]s from one place. New device generations (MI300A-class
//! follow-ups) slot in as one registry entry instead of a constructor
//! per call site.

use std::sync::Arc;

use mc_isa::specs;
use mc_trace::TraceSink;

use crate::config::SimConfig;
use crate::device::Gpu;

/// Identifier of a built-in device model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceId {
    /// AMD Instinct MI100 (one CDNA1 die) — the first Matrix Core
    /// generation.
    Mi100,
    /// AMD Instinct MI250X full package (two CDNA2 GCDs).
    Mi250x,
    /// One GCD of the MI250X, presented as its own device (each GCD is a
    /// separate HIP device, paper §II). Same package model as
    /// [`DeviceId::Mi250x`]; launches pin to die 0.
    Mi250xGcd,
    /// NVIDIA A100-SXM4-40GB (single die).
    A100,
}

impl DeviceId {
    /// Every built-in device, in canonical order.
    pub const ALL: [DeviceId; 4] = [
        DeviceId::Mi100,
        DeviceId::Mi250x,
        DeviceId::Mi250xGcd,
        DeviceId::A100,
    ];

    /// Stable registry name of this device.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceId::Mi100 => "mi100",
            DeviceId::Mi250x => "mi250x",
            DeviceId::Mi250xGcd => "mi250x-gcd",
            DeviceId::A100 => "a100",
        }
    }

    /// Parses a registry name back into an id.
    pub fn parse(name: &str) -> Option<DeviceId> {
        DeviceId::ALL.into_iter().find(|id| id.as_str() == name)
    }

    /// The die launches should default to for this device view.
    pub fn default_die(self) -> usize {
        0
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from registering a custom device.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    /// A device with this name already exists.
    DuplicateName(String),
    /// The configuration failed [`SimConfig::validate`].
    InvalidConfig(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "device `{name}` is already registered")
            }
            RegistryError::InvalidConfig(reason) => {
                write!(f, "invalid device configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Registry of simulated device configurations.
///
/// ```
/// use mc_sim::{DeviceId, DeviceRegistry};
///
/// let devices = DeviceRegistry::builtin();
/// let mut gpu = devices.gpu(DeviceId::Mi250x);
/// assert_eq!(gpu.spec().dies, 2);
/// assert_eq!(devices.gpu(DeviceId::A100).spec().name, "NVIDIA A100");
/// ```
#[derive(Clone, Debug)]
pub struct DeviceRegistry {
    entries: Vec<(String, SimConfig)>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl DeviceRegistry {
    /// A registry holding the four built-in devices.
    pub fn builtin() -> Self {
        let mut registry = DeviceRegistry {
            entries: Vec::new(),
            sink: None,
        };
        for id in DeviceId::ALL {
            let package = match id {
                DeviceId::Mi100 => specs::mi100(),
                DeviceId::Mi250x | DeviceId::Mi250xGcd => specs::mi250x(),
                DeviceId::A100 => specs::a100(),
            };
            registry
                .register(id.as_str(), SimConfig::for_package(package))
                .expect("built-in devices are valid and unique");
        }
        registry
    }

    /// Registers a custom device configuration under a unique name.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        config: SimConfig,
    ) -> Result<(), RegistryError> {
        let name = name.into();
        if self.config_named(&name).is_some() {
            return Err(RegistryError::DuplicateName(name));
        }
        config.validate().map_err(RegistryError::InvalidConfig)?;
        self.entries.push((name, config));
        Ok(())
    }

    /// The configuration of a built-in device.
    pub fn config(&self, id: DeviceId) -> &SimConfig {
        self.config_named(id.as_str())
            .expect("built-in devices are always registered")
    }

    /// The configuration registered under `name`, if any.
    pub fn config_named(&self, name: &str) -> Option<&SimConfig> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, config)| config)
    }

    /// Attaches a default trace sink: every [`Gpu`] subsequently
    /// constructed through this registry emits its launch timelines
    /// into it. Devices handed out earlier are unaffected.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// The default trace sink, if one is attached.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// Constructs a fresh GPU for a built-in device.
    pub fn gpu(&self, id: DeviceId) -> Gpu {
        let mut gpu = Gpu::new(self.config(id).clone());
        if let Some(sink) = &self.sink {
            gpu.set_trace_sink(sink.clone());
        }
        gpu
    }

    /// Registered device names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(name, _)| name.as_str())
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty (never true for [`Self::builtin`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for DeviceRegistry {
    fn default() -> Self {
        DeviceRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_devices_resolve_by_id_and_name() {
        let devices = DeviceRegistry::builtin();
        assert_eq!(devices.len(), 4);
        for id in DeviceId::ALL {
            assert_eq!(DeviceId::parse(id.as_str()), Some(id));
            assert!(devices.config_named(id.as_str()).is_some());
            assert_eq!(devices.gpu(id).spec().name, devices.config(id).package.name);
        }
        assert_eq!(DeviceId::parse("mi300a"), None);
    }

    #[test]
    fn gcd_view_shares_the_package_model() {
        let devices = DeviceRegistry::builtin();
        assert_eq!(
            devices.config(DeviceId::Mi250xGcd).package,
            devices.config(DeviceId::Mi250x).package
        );
        assert_eq!(DeviceId::Mi250xGcd.default_die(), 0);
    }

    #[test]
    fn custom_devices_register_and_validate() {
        let mut devices = DeviceRegistry::builtin();

        // A hypothetical next-generation part: more CUs, faster clock.
        let mut config = devices.config(DeviceId::Mi250x).clone();
        config.package.name = "Hypothetical MI-Next".into();
        config.package.die.compute_units = 228;
        devices.register("mi-next", config).unwrap();
        assert_eq!(devices.len(), 5);
        let gpu = Gpu::new(devices.config_named("mi-next").unwrap().clone());
        assert_eq!(gpu.spec().die.compute_units, 228);

        // Duplicate names are rejected.
        let dup = devices.config(DeviceId::Mi100).clone();
        assert_eq!(
            devices.register("mi-next", dup),
            Err(RegistryError::DuplicateName("mi-next".into()))
        );

        // Invalid configurations are rejected.
        let mut broken = devices.config(DeviceId::Mi100).clone();
        broken.package.die.compute_units = 0;
        assert!(matches!(
            devices.register("broken", broken),
            Err(RegistryError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fresh_gpus_do_not_share_counters() {
        let devices = DeviceRegistry::builtin();
        let mut a = devices.gpu(DeviceId::Mi250x);
        let b = devices.gpu(DeviceId::Mi250x);
        let kernel = mc_isa::KernelDesc {
            workgroups: 4,
            waves_per_workgroup: 1,
            ..mc_isa::KernelDesc::new(
                "touch",
                mc_isa::WaveProgram::looped(
                    vec![mc_isa::SlotOp::Mfma(
                        *mc_isa::cdna2_catalog()
                            .find(mc_types::DType::F32, mc_types::DType::F16, 16, 16, 16)
                            .unwrap(),
                    )],
                    100,
                ),
            )
        };
        a.launch(0, &kernel).unwrap();
        assert!(a.counters(0).unwrap().mfma_mops_f16 > 0);
        assert_eq!(b.counters(0).unwrap().mfma_mops_f16, 0);
    }
}
