//! Flight controller: mode machine, state estimator and control cascade.
//!
//! This module is the stand-in for the PX4 firmware on the paper's Pixhawk
//! 2.4.8 / Cuav X7+ flight controllers. It exposes the same abstractions the
//! companion computer uses over MAVLink: arming, take-off, offboard position
//! and velocity setpoints, landing, and an estimated local position that the
//! landing-system modules consume.

mod ekf;
mod pid;

pub use ekf::{Ekf, EkfConfig};
pub use pid::{Pid, PidConfig};

use mls_geom::{Attitude, Pose, Vec3};
use serde::{Deserialize, Serialize};

use crate::dynamics::ControlCommand;
use crate::sensors::{GpsFix, ImuSample};

/// Top-level flight mode of the autopilot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlightMode {
    /// Motors off, on the ground.
    Disarmed,
    /// Climbing to the requested take-off altitude.
    Takeoff,
    /// Holding the captured position.
    Hold,
    /// Following offboard position or velocity setpoints from the companion
    /// computer.
    Offboard,
    /// Descending for touchdown.
    Landing,
}

/// Offboard setpoint styles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Setpoint {
    Position { target: Vec3, yaw: f64 },
    Velocity { velocity: Vec3, yaw: f64 },
}

/// Gains and limits of the position/velocity cascade.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutopilotConfig {
    /// Estimator noise configuration.
    pub ekf: EkfConfig,
    /// Proportional gain from position error to velocity setpoint.
    pub position_gain: f64,
    /// Proportional gain from vertical position error to climb rate.
    pub vertical_position_gain: f64,
    /// Velocity-loop PID configuration (horizontal axes).
    pub velocity_pid: PidConfig,
    /// Velocity-loop PID configuration (vertical axis).
    pub vertical_velocity_pid: PidConfig,
    /// Cruise speed limit applied to the position loop, m/s.
    pub cruise_speed: f64,
    /// Climb/descent speed limit applied to the position loop, m/s.
    pub vertical_speed: f64,
    /// Descent rate commanded in [`FlightMode::Landing`], m/s.
    pub landing_descent_rate: f64,
    /// Climb rate commanded in [`FlightMode::Takeoff`], m/s.
    pub takeoff_climb_rate: f64,
    /// Altitude tolerance for declaring take-off complete, metres.
    pub takeoff_tolerance: f64,
}

impl Default for AutopilotConfig {
    fn default() -> Self {
        Self {
            ekf: EkfConfig::default(),
            position_gain: 0.9,
            vertical_position_gain: 1.0,
            velocity_pid: PidConfig::pid(1.6, 0.15, 0.05, 4.0, 1.0),
            vertical_velocity_pid: PidConfig::pid(2.0, 0.2, 0.05, 3.0, 1.0),
            cruise_speed: 5.0,
            vertical_speed: 2.0,
            landing_descent_rate: 0.7,
            takeoff_climb_rate: 1.5,
            takeoff_tolerance: 0.4,
        }
    }
}

/// The simulated flight controller.
#[derive(Debug, Clone)]
pub struct Autopilot {
    config: AutopilotConfig,
    mode: FlightMode,
    ekf: Ekf,
    attitude: Attitude,
    setpoint: Setpoint,
    takeoff_target: f64,
    hold_position: Vec3,
    vel_x: Pid,
    vel_y: Pid,
    vel_z: Pid,
}

impl Autopilot {
    /// Creates a disarmed autopilot initialised at `start`.
    pub fn new(config: AutopilotConfig, start: Vec3) -> Self {
        Self {
            mode: FlightMode::Disarmed,
            ekf: Ekf::new(config.ekf, start),
            attitude: Attitude::LEVEL,
            setpoint: Setpoint::Position {
                target: start,
                yaw: 0.0,
            },
            takeoff_target: 0.0,
            hold_position: start,
            vel_x: Pid::new(config.velocity_pid),
            vel_y: Pid::new(config.velocity_pid),
            vel_z: Pid::new(config.vertical_velocity_pid),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AutopilotConfig {
        &self.config
    }

    /// The current flight mode.
    pub fn mode(&self) -> FlightMode {
        self.mode
    }

    /// Estimated position (EKF output).
    pub fn estimated_position(&self) -> Vec3 {
        self.ekf.position()
    }

    /// Estimated pose: EKF position combined with the attitude solution.
    pub fn estimated_pose(&self) -> Pose {
        Pose::new(self.ekf.position(), self.attitude)
    }

    /// 1σ horizontal position uncertainty, metres.
    pub fn position_uncertainty(&self) -> f64 {
        let s = self.ekf.position_sigma();
        s.xy().norm()
    }

    /// Arms the vehicle and starts a climb to `altitude` metres above the
    /// current estimate.
    pub fn arm_and_takeoff(&mut self, altitude: f64) {
        self.takeoff_target = self.ekf.position().z + altitude.max(0.5);
        self.hold_position = self.ekf.position();
        self.mode = FlightMode::Takeoff;
        self.reset_loops();
    }

    /// Switches to offboard control with a position setpoint.
    pub fn goto(&mut self, target: Vec3, yaw: f64) {
        self.setpoint = Setpoint::Position { target, yaw };
        if self.mode != FlightMode::Disarmed {
            self.mode = FlightMode::Offboard;
        }
    }

    /// Switches to offboard control with a velocity setpoint.
    pub fn set_velocity(&mut self, velocity: Vec3, yaw: f64) {
        self.setpoint = Setpoint::Velocity { velocity, yaw };
        if self.mode != FlightMode::Disarmed {
            self.mode = FlightMode::Offboard;
        }
    }

    /// Captures the current position and holds it.
    pub fn hold(&mut self) {
        if self.mode != FlightMode::Disarmed {
            self.hold_position = self.ekf.position();
            self.mode = FlightMode::Hold;
        }
    }

    /// Starts the final descent at the configured landing rate.
    pub fn land(&mut self) {
        if self.mode != FlightMode::Disarmed {
            self.hold_position = self.ekf.position();
            self.mode = FlightMode::Landing;
        }
    }

    /// Notifies the autopilot that the airframe reports ground contact; the
    /// autopilot disarms if it was landing.
    pub fn notify_touchdown(&mut self) {
        if matches!(self.mode, FlightMode::Landing) {
            self.mode = FlightMode::Disarmed;
        }
    }

    /// `true` when the estimated position is within `tolerance` of `target`.
    pub fn reached(&self, target: Vec3, tolerance: f64) -> bool {
        self.ekf.position().distance(target) <= tolerance
    }

    /// Feeds one IMU sample (runs the EKF prediction) plus whichever slower
    /// measurements arrived this tick.
    pub fn sense(
        &mut self,
        imu: &ImuSample,
        gps: Option<&GpsFix>,
        baro_altitude: Option<f64>,
        range_altitude: Option<f64>,
        dt: f64,
    ) {
        self.attitude = imu.attitude;
        self.ekf.predict(imu.linear_acceleration, dt);
        if let Some(fix) = gps {
            self.ekf
                .update_gps(fix.position, fix.velocity, fix.quality());
        }
        if let Some(alt) = baro_altitude {
            self.ekf.update_baro(alt);
        }
        if let Some(alt) = range_altitude {
            self.ekf.update_range(alt);
        }
    }

    /// Computes the acceleration command for the current mode and setpoints.
    pub fn control(&mut self, dt: f64) -> ControlCommand {
        let cfg = self.config;
        let position = self.ekf.position();
        let velocity = self.ekf.velocity();

        let (velocity_setpoint, yaw) = match self.mode {
            FlightMode::Disarmed => {
                return ControlCommand::hover(self.attitude.yaw);
            }
            FlightMode::Takeoff => {
                if position.z >= self.takeoff_target - cfg.takeoff_tolerance {
                    self.mode = FlightMode::Hold;
                    self.hold_position = Vec3::new(
                        self.hold_position.x,
                        self.hold_position.y,
                        self.takeoff_target,
                    );
                }
                let target = Vec3::new(
                    self.hold_position.x,
                    self.hold_position.y,
                    self.takeoff_target,
                );
                let mut v = self.position_loop(target, position);
                v.z = v.z.clamp(0.0, cfg.takeoff_climb_rate);
                (v, self.attitude.yaw)
            }
            FlightMode::Hold => (
                self.position_loop(self.hold_position, position),
                self.attitude.yaw,
            ),
            FlightMode::Offboard => match self.setpoint {
                Setpoint::Position { target, yaw } => (self.position_loop(target, position), yaw),
                Setpoint::Velocity { velocity, yaw } => (
                    Vec3::new(
                        velocity.x.clamp(-cfg.cruise_speed, cfg.cruise_speed),
                        velocity.y.clamp(-cfg.cruise_speed, cfg.cruise_speed),
                        velocity.z.clamp(-cfg.vertical_speed, cfg.vertical_speed),
                    ),
                    yaw,
                ),
            },
            FlightMode::Landing => {
                let mut v = self.position_loop(self.hold_position, position);
                v.z = -cfg.landing_descent_rate;
                (v, self.attitude.yaw)
            }
        };

        let acceleration = Vec3::new(
            self.vel_x.update(velocity_setpoint.x - velocity.x, dt),
            self.vel_y.update(velocity_setpoint.y - velocity.y, dt),
            self.vel_z.update(velocity_setpoint.z - velocity.z, dt),
        );
        ControlCommand { acceleration, yaw }
    }

    /// Position P-loop producing a limited velocity setpoint.
    fn position_loop(&self, target: Vec3, position: Vec3) -> Vec3 {
        let cfg = &self.config;
        let error = target - position;
        let horizontal = (error.horizontal() * cfg.position_gain).clamp_norm(cfg.cruise_speed);
        let vertical =
            (error.z * cfg.vertical_position_gain).clamp(-cfg.vertical_speed, cfg.vertical_speed);
        Vec3::new(horizontal.x, horizontal.y, vertical)
    }

    fn reset_loops(&mut self) {
        self.vel_x.reset();
        self.vel_y.reset();
        self.vel_z.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{AirframeConfig, QuadrotorDynamics};
    use crate::sensors::{GpsFix, ImuSample};

    /// Closed-loop helper: perfect sensors, real dynamics.
    fn fly(autopilot: &mut Autopilot, dynamics: &mut QuadrotorDynamics, seconds: f64) {
        let dt = 0.02;
        let steps = (seconds / dt) as usize;
        for i in 0..steps {
            let state = *dynamics.state();
            let imu = ImuSample {
                linear_acceleration: state.acceleration,
                angular_rate: Vec3::ZERO,
                attitude: state.attitude,
            };
            let gps = GpsFix {
                position: state.position,
                velocity: state.velocity,
                hdop: 0.8,
                vdop: 1.2,
            };
            let baro = Some(state.position.z);
            autopilot.sense(&imu, (i % 10 == 0).then_some(&gps), baro, None, dt);
            let cmd = autopilot.control(dt);
            let new_state = dynamics.step(&cmd, Vec3::ZERO, 0.0, dt);
            if new_state.landed {
                autopilot.notify_touchdown();
            }
        }
    }

    #[test]
    fn takeoff_reaches_commanded_altitude() {
        let mut ap = Autopilot::new(AutopilotConfig::default(), Vec3::ZERO);
        let mut dyn_ = QuadrotorDynamics::new(AirframeConfig::default(), Vec3::ZERO);
        ap.arm_and_takeoff(10.0);
        fly(&mut ap, &mut dyn_, 20.0);
        assert_eq!(ap.mode(), FlightMode::Hold);
        assert!(
            (dyn_.state().position.z - 10.0).abs() < 1.0,
            "{:?}",
            dyn_.state().position
        );
    }

    #[test]
    fn offboard_position_setpoint_is_tracked() {
        let mut ap = Autopilot::new(AutopilotConfig::default(), Vec3::ZERO);
        let mut dyn_ = QuadrotorDynamics::new(AirframeConfig::default(), Vec3::ZERO);
        ap.arm_and_takeoff(8.0);
        fly(&mut ap, &mut dyn_, 15.0);
        let target = Vec3::new(20.0, -10.0, 12.0);
        ap.goto(target, 0.5);
        fly(&mut ap, &mut dyn_, 30.0);
        assert!(
            dyn_.state().position.distance(target) < 1.5,
            "{:?}",
            dyn_.state().position
        );
        assert!(ap.reached(target, 2.0));
    }

    #[test]
    fn velocity_setpoint_moves_vehicle() {
        let mut ap = Autopilot::new(AutopilotConfig::default(), Vec3::ZERO);
        let mut dyn_ = QuadrotorDynamics::new(AirframeConfig::default(), Vec3::ZERO);
        ap.arm_and_takeoff(6.0);
        fly(&mut ap, &mut dyn_, 12.0);
        ap.set_velocity(Vec3::new(2.0, 0.0, 0.0), 0.0);
        fly(&mut ap, &mut dyn_, 10.0);
        assert!(
            dyn_.state().position.x > 10.0,
            "{:?}",
            dyn_.state().position
        );
    }

    #[test]
    fn landing_descends_and_disarms_on_touchdown() {
        let mut ap = Autopilot::new(AutopilotConfig::default(), Vec3::ZERO);
        let mut dyn_ = QuadrotorDynamics::new(AirframeConfig::default(), Vec3::ZERO);
        ap.arm_and_takeoff(6.0);
        fly(&mut ap, &mut dyn_, 12.0);
        ap.land();
        fly(&mut ap, &mut dyn_, 30.0);
        assert_eq!(ap.mode(), FlightMode::Disarmed);
        assert!(dyn_.state().position.z < 0.05);
        assert!(dyn_.state().landed);
    }

    #[test]
    fn disarmed_vehicle_ignores_offboard_commands() {
        let mut ap = Autopilot::new(AutopilotConfig::default(), Vec3::ZERO);
        ap.goto(Vec3::new(5.0, 5.0, 5.0), 0.0);
        assert_eq!(ap.mode(), FlightMode::Disarmed);
        let cmd = ap.control(0.02);
        assert_eq!(cmd.acceleration, Vec3::ZERO);
    }

    #[test]
    fn hold_keeps_position_under_wind() {
        let mut ap = Autopilot::new(AutopilotConfig::default(), Vec3::ZERO);
        let mut dyn_ = QuadrotorDynamics::new(AirframeConfig::default(), Vec3::ZERO);
        ap.arm_and_takeoff(8.0);
        fly(&mut ap, &mut dyn_, 15.0);
        ap.hold();
        let hold_start = dyn_.state().position;
        // Wind pushes, the controller corrects.
        let dt = 0.02;
        for i in 0..1500 {
            let state = *dyn_.state();
            let imu = ImuSample {
                linear_acceleration: state.acceleration,
                angular_rate: Vec3::ZERO,
                attitude: state.attitude,
            };
            let gps = GpsFix {
                position: state.position,
                velocity: state.velocity,
                hdop: 0.8,
                vdop: 1.2,
            };
            ap.sense(
                &imu,
                (i % 10 == 0).then_some(&gps),
                Some(state.position.z),
                None,
                dt,
            );
            let cmd = ap.control(dt);
            dyn_.step(&cmd, Vec3::new(3.0, 1.0, 0.0), 0.0, dt);
        }
        assert!(
            dyn_.state().position.horizontal_distance(hold_start) < 1.5,
            "hold drift {:?}",
            dyn_.state().position
        );
    }

    #[test]
    fn estimated_pose_follows_estimate_not_truth() {
        let mut ap = Autopilot::new(AutopilotConfig::default(), Vec3::ZERO);
        // Feed a GPS fix far from the truth: the estimate moves toward it.
        let imu = ImuSample {
            linear_acceleration: Vec3::ZERO,
            angular_rate: Vec3::ZERO,
            attitude: Attitude::LEVEL,
        };
        let fix = GpsFix {
            position: Vec3::new(4.0, 0.0, 0.0),
            velocity: Vec3::ZERO,
            hdop: 1.0,
            vdop: 1.0,
        };
        for _ in 0..100 {
            ap.sense(&imu, Some(&fix), None, None, 0.02);
        }
        assert!(ap.estimated_pose().position.x > 2.0);
        assert!(ap.position_uncertainty() < 2.0);
    }
}
