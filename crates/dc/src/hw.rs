//! The acquisition hardware model (§8.1, Fig. 5).
//!
//! "The 4 channel PCMCIA card samples DC and AC dynamic signals. Highest
//! sampling rate exceeds 40,000 Hz... Each of the 2 MUX cards can switch
//! between 4 sets of 4 channels each yielding up to 32 channels of data.
//! Of those 32 channels, 24 can power standard accelerometers...
//! Additionally, all channels are equipped with an RMS detector which
//! can be configure\[d\] to provide a digital signal when the RMS of the
//! incoming signal exceeds a programmed value."
//!
//! The model enforces those capacities and reproduces the operational
//! consequence of multiplexing: only four channels digitize at a time,
//! so a full survey acquires bank after bank, each bank's block starting
//! where the previous one ended in simulated time.

use mpros_chiller::vibration::AccelLocation;
use mpros_chiller::ChillerPlant;
use mpros_core::{Error, Result, SimDuration, SimTime};
use mpros_signal::rms::RmsAlarm;

/// Channels per sampler bank (the 4-channel PCMCIA DSP card).
pub const BANK_WIDTH: usize = 4;
/// Total channel capacity (2 MUX cards × 16).
pub const MAX_CHANNELS: usize = 32;
/// Channels that can power accelerometers.
pub const MAX_ACCEL_CHANNELS: usize = 24;
/// Maximum supported sample rate, Hz ("exceeds 40,000 Hz").
pub const MAX_SAMPLE_RATE: f64 = 48_000.0;

/// Injected sensor failure modes (§4.9: shipboard robustness requires
/// "simulating the range of problems that may arise").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// Dead channel: reads as electrical zero.
    Flatline,
    /// Transducer stuck at a constant output.
    Stuck(f64),
    /// Loose connector: signal drops out in bursts (every other 256-
    /// sample chunk reads zero).
    Intermittent,
    /// Over-ranged input or a failing amplifier: the converter clips
    /// every sample to `±rail`, g.
    Saturated(f64),
}

/// One configured channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// The accelerometer location this channel is wired to.
    pub location: AccelLocation,
    /// Programmed RMS alarm threshold, g.
    pub alarm_threshold: f64,
}

/// Hardware configuration.
#[derive(Debug, Clone)]
pub struct HwConfig {
    /// Wired channels (≤ 24 accelerometers).
    pub channels: Vec<ChannelConfig>,
    /// Sampler rate, Hz (≤ 48 kHz).
    pub sample_rate: f64,
    /// Samples per acquisition block (power of two for the FFT chain).
    pub block_len: usize,
}

impl HwConfig {
    /// The standard five-accelerometer chiller survey at 16.384 kHz.
    /// Blocks are 2 s (32 768 samples) so the spectrum resolves the
    /// ~1.6 Hz pole-pass sidebands rotor-bar analysis needs.
    pub fn standard() -> Self {
        HwConfig {
            channels: AccelLocation::ALL
                .iter()
                .map(|&location| ChannelConfig {
                    location,
                    alarm_threshold: 1.0,
                })
                .collect(),
            sample_rate: 16_384.0,
            block_len: 32_768,
        }
    }
}

/// The MUX + sampler + RMS-detector chain.
#[derive(Debug)]
pub struct AcquisitionChain {
    config: HwConfig,
    alarms: Vec<RmsAlarm>,
    sensor_faults: Vec<Option<SensorFault>>,
}

impl AcquisitionChain {
    /// Build and validate the chain against the Fig. 5 capacities.
    pub fn new(config: HwConfig) -> Result<Self> {
        if config.channels.is_empty() {
            return Err(Error::invalid("no channels configured"));
        }
        if config.channels.len() > MAX_ACCEL_CHANNELS {
            return Err(Error::CapacityExceeded(format!(
                "{} accelerometer channels exceeds the MUX cards' {MAX_ACCEL_CHANNELS}",
                config.channels.len()
            )));
        }
        if config.channels.len() > MAX_CHANNELS {
            return Err(Error::CapacityExceeded("more than 32 channels".into()));
        }
        if config.sample_rate <= 0.0 || config.sample_rate > MAX_SAMPLE_RATE {
            return Err(Error::invalid(format!(
                "sample rate {} outside (0, {MAX_SAMPLE_RATE}]",
                config.sample_rate
            )));
        }
        if !config.block_len.is_power_of_two() || config.block_len < 2 {
            return Err(Error::invalid("block length must be a power of two"));
        }
        let alarms = config
            .channels
            .iter()
            .map(|c| RmsAlarm::new(c.alarm_threshold, (config.sample_rate / 10.0).max(1.0)))
            .collect::<Result<Vec<_>>>()?;
        Ok(AcquisitionChain {
            sensor_faults: vec![None; config.channels.len()],
            config,
            alarms,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// Duration of one block at the configured rate.
    pub fn block_duration(&self) -> SimDuration {
        SimDuration::from_secs(self.config.block_len as f64 / self.config.sample_rate)
    }

    /// Duration of a full survey: one block per bank, banks sequential.
    pub fn survey_duration(&self) -> SimDuration {
        let banks = self.config.channels.len().div_ceil(BANK_WIDTH);
        self.block_duration() * banks as f64
    }

    /// Acquire a full survey from the plant starting at `t0`. Banks of
    /// four channels are digitized back-to-back (the MUX constraint);
    /// every block also updates its channel's RMS alarm detector.
    /// Injected sensor faults corrupt the digitized block exactly as the
    /// hardware would see it.
    pub fn survey(&mut self, plant: &ChillerPlant, t0: SimTime) -> Vec<(AccelLocation, Vec<f64>)> {
        let mut out = Vec::with_capacity(self.config.channels.len());
        self.survey_into(plant, t0, &mut out);
        out
    }

    /// [`AcquisitionChain::survey`] refilling a caller-provided buffer in
    /// place. Existing entries (and their block allocations) are reused
    /// index-wise, so a DC that keeps the buffer across surveys performs
    /// zero steady-state heap allocations in acquisition. Channel order,
    /// injected sensor faults and alarm updates are identical to
    /// [`AcquisitionChain::survey`], and the digitized blocks are
    /// bit-identical.
    pub fn survey_into(
        &mut self,
        plant: &ChillerPlant,
        t0: SimTime,
        out: &mut Vec<(AccelLocation, Vec<f64>)>,
    ) {
        out.truncate(self.config.channels.len());
        for (bank_idx, bank) in self.config.channels.chunks(BANK_WIDTH).enumerate() {
            let bank_t0 = t0 + self.block_duration() * bank_idx as f64;
            for (offset, ch) in bank.iter().enumerate() {
                let global = bank_idx * BANK_WIDTH + offset;
                if global == out.len() {
                    out.push((ch.location, Vec::new()));
                }
                let slot = &mut out[global];
                slot.0 = ch.location;
                let block = &mut slot.1;
                plant.sample_vibration_into(
                    ch.location,
                    bank_t0,
                    self.config.block_len,
                    self.config.sample_rate,
                    block,
                );
                match self.sensor_faults[global] {
                    None => {}
                    Some(SensorFault::Flatline) => block.fill(0.0),
                    Some(SensorFault::Stuck(v)) => block.fill(v),
                    Some(SensorFault::Intermittent) => {
                        for (i, chunk) in block.chunks_mut(256).enumerate() {
                            if i % 2 == 1 {
                                chunk.fill(0.0);
                            }
                        }
                    }
                    Some(SensorFault::Saturated(rail)) => {
                        let rail = rail.abs();
                        for x in block.iter_mut().filter(|x| x.abs() > rail) {
                            *x = rail.copysign(*x);
                        }
                    }
                }
                self.alarms[global].update_block(block);
            }
        }
    }

    /// Inject a sensor failure on a channel.
    pub fn fail_sensor(&mut self, channel: usize, fault: SensorFault) -> Result<()> {
        *self
            .sensor_faults
            .get_mut(channel)
            .ok_or_else(|| Error::not_found(format!("channel {channel}")))? = Some(fault);
        Ok(())
    }

    /// Clear an injected sensor failure.
    pub fn repair_sensor(&mut self, channel: usize) -> Result<()> {
        *self
            .sensor_faults
            .get_mut(channel)
            .ok_or_else(|| Error::not_found(format!("channel {channel}")))? = None;
        Ok(())
    }

    /// Asserted state of every channel's RMS alarm.
    pub fn alarm_states(&self) -> Vec<(AccelLocation, bool)> {
        self.config
            .channels
            .iter()
            .zip(&self.alarms)
            .map(|(c, a)| (c.location, a.is_asserted()))
            .collect()
    }

    /// Acknowledge (clear) every latched alarm.
    pub fn acknowledge_alarms(&mut self) {
        for a in &mut self.alarms {
            a.acknowledge();
        }
    }

    /// Reprogram one channel's alarm threshold.
    pub fn set_alarm_threshold(&mut self, channel: usize, threshold: f64) -> Result<()> {
        let alarm = self
            .alarms
            .get_mut(channel)
            .ok_or_else(|| Error::not_found(format!("channel {channel}")))?;
        alarm.set_threshold(threshold)?;
        self.config.channels[channel].alarm_threshold = threshold;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_chiller::fault::{FaultProfile, FaultSeed};
    use mpros_chiller::plant::PlantConfig;
    use mpros_core::{MachineCondition, MachineId};

    fn plant() -> ChillerPlant {
        ChillerPlant::new(PlantConfig::new(MachineId::new(1), 5))
    }

    #[test]
    fn capacity_validation() {
        let mut cfg = HwConfig::standard();
        assert!(AcquisitionChain::new(cfg.clone()).is_ok());
        cfg.sample_rate = 50_000.0;
        assert!(AcquisitionChain::new(cfg.clone()).is_err());
        cfg.sample_rate = 16_384.0;
        cfg.block_len = 1000;
        assert!(AcquisitionChain::new(cfg.clone()).is_err());
        cfg.block_len = 8192;
        cfg.channels.clear();
        assert!(AcquisitionChain::new(cfg.clone()).is_err());
        // 25 accelerometers exceeds the powered-channel budget.
        cfg.channels = (0..25)
            .map(|_| ChannelConfig {
                location: AccelLocation::MotorDriveEnd,
                alarm_threshold: 1.0,
            })
            .collect();
        assert!(matches!(
            AcquisitionChain::new(cfg).unwrap_err(),
            Error::CapacityExceeded(_)
        ));
    }

    #[test]
    fn survey_covers_all_channels() {
        let mut chain = AcquisitionChain::new(HwConfig::standard()).unwrap();
        let blocks = chain.survey(&plant(), SimTime::ZERO);
        assert_eq!(blocks.len(), 5);
        for (_, b) in &blocks {
            assert_eq!(b.len(), 32_768);
        }
    }

    #[test]
    fn banks_are_time_sequential() {
        // 5 channels → 2 banks; the second bank's block must differ from
        // a block taken at t0 (it is taken one block-duration later).
        let mut chain = AcquisitionChain::new(HwConfig::standard()).unwrap();
        let p = plant();
        let blocks = chain.survey(&p, SimTime::ZERO);
        let fifth_loc = blocks[4].0;
        let at_t0 = p.sample_vibration(fifth_loc, SimTime::ZERO, 32_768, 16_384.0);
        assert_ne!(blocks[4].1, at_t0, "bank 2 starts after bank 1 ends");
        let later = p.sample_vibration(
            fifth_loc,
            SimTime::ZERO + chain.block_duration(),
            32_768,
            16_384.0,
        );
        assert_eq!(blocks[4].1, later);
    }

    #[test]
    fn survey_duration_accounts_for_banks() {
        let chain = AcquisitionChain::new(HwConfig::standard()).unwrap();
        let expect = chain.block_duration() * 2.0; // ceil(5/4) banks
        assert!((chain.survey_duration().as_secs() - expect.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn rms_alarm_trips_on_violent_vibration() {
        let mut chain = AcquisitionChain::new(HwConfig {
            channels: vec![ChannelConfig {
                location: AccelLocation::MotorDriveEnd,
                alarm_threshold: 0.3,
            }],
            sample_rate: 16_384.0,
            block_len: 4096,
        })
        .unwrap();
        let mut p = plant();
        assert!(!chain.alarm_states()[0].1, "healthy plant stays quiet");
        chain.survey(&p, SimTime::ZERO);
        assert!(!chain.alarm_states()[0].1);
        // Violent imbalance trips the 0.3 g RMS alarm.
        p.seed_fault(FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(1.0),
        });
        chain.survey(&p, SimTime::from_secs(10.0));
        assert!(chain.alarm_states()[0].1, "alarm should latch");
        chain.acknowledge_alarms();
        assert!(!chain.alarm_states()[0].1);
    }

    #[test]
    fn alarm_threshold_reprogramming() {
        let mut chain = AcquisitionChain::new(HwConfig::standard()).unwrap();
        chain.set_alarm_threshold(0, 0.05).unwrap();
        assert_eq!(chain.config().channels[0].alarm_threshold, 0.05);
        assert!(chain.set_alarm_threshold(99, 1.0).is_err());
        assert!(chain.set_alarm_threshold(0, -1.0).is_err());
    }
}

#[cfg(test)]
mod sensor_fault_tests {
    use super::*;
    use mpros_chiller::plant::PlantConfig;
    use mpros_core::MachineId;

    fn chain() -> AcquisitionChain {
        AcquisitionChain::new(HwConfig::standard()).unwrap()
    }

    fn plant() -> ChillerPlant {
        ChillerPlant::new(PlantConfig::new(MachineId::new(1), 5))
    }

    #[test]
    fn flatline_reads_zero_and_repairs() {
        let mut c = chain();
        c.fail_sensor(0, SensorFault::Flatline).unwrap();
        let blocks = c.survey(&plant(), SimTime::ZERO);
        assert!(blocks[0].1.iter().all(|&x| x == 0.0), "flatlined channel");
        assert!(blocks[1].1.iter().any(|&x| x != 0.0), "others unaffected");
        c.repair_sensor(0).unwrap();
        let blocks = c.survey(&plant(), SimTime::from_secs(10.0));
        assert!(blocks[0].1.iter().any(|&x| x != 0.0), "repaired");
    }

    #[test]
    fn stuck_sensor_reads_a_constant() {
        let mut c = chain();
        c.fail_sensor(2, SensorFault::Stuck(4.2)).unwrap();
        let blocks = c.survey(&plant(), SimTime::ZERO);
        assert!(blocks[2].1.iter().all(|&x| x == 4.2));
        // A stuck-high transducer trips the RMS alarm — exactly what
        // the hardware detector is for.
        assert!(c.alarm_states()[2].1, "stuck-high should alarm");
    }

    #[test]
    fn intermittent_sensor_drops_chunks() {
        let mut c = chain();
        c.fail_sensor(1, SensorFault::Intermittent).unwrap();
        let blocks = c.survey(&plant(), SimTime::ZERO);
        let b = &blocks[1].1;
        assert!(b[256..512].iter().all(|&x| x == 0.0), "odd chunk dropped");
        assert!(b[0..256].iter().any(|&x| x != 0.0), "even chunk alive");
    }

    #[test]
    fn saturated_sensor_clips_to_its_rail() {
        let p = plant();
        let healthy = chain().survey(&p, SimTime::ZERO);
        let peak = healthy[3].1.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let rail = peak / 4.0;
        let mut c = chain();
        c.fail_sensor(3, SensorFault::Saturated(rail)).unwrap();
        let blocks = c.survey(&p, SimTime::ZERO);
        let clipped = &blocks[3].1;
        assert!(clipped.iter().all(|x| x.abs() <= rail), "within ±rail");
        assert!(
            clipped.iter().filter(|x| x.abs() == rail).count() > clipped.len() / 100,
            "a rail a quarter of the peak pins many samples"
        );
        for (x, y) in clipped.iter().zip(&healthy[3].1) {
            if y.abs() < rail {
                assert_eq!(x, y, "samples inside the rail pass unchanged");
            }
        }
        assert_eq!(blocks[0].1, healthy[0].1, "others unaffected");
    }

    #[test]
    fn bad_channel_index_is_an_error() {
        let mut c = chain();
        assert!(c.fail_sensor(99, SensorFault::Flatline).is_err());
        assert!(c.repair_sensor(99).is_err());
    }
}
