//! The paper's automotive case study: three control applications sharing
//! one microcontroller (Section V).
//!
//! * **C1** — position control of a servo motor (steer-by-wire, \[16\]),
//! * **C2** — speed control of a DC motor (EV cruise control, \[17\]),
//! * **C3** — clamp-force control of the Siemens electronic wedge brake
//!   (brake-by-wire, \[18\]).
//!
//! The paper does not publish plant matrices, so each module derives a
//! physically-plausible LTI model from first principles with
//! representative constants, chosen such that the Table II timing
//! parameters (deadlines, idle limits) are meaningful for the dynamics.
//! The instruction-level programs are synthetic but **calibrated to the
//! exact Table I WCET cycle counts** via [`cacs_cache::SyntheticProgram`].
//!
//! # Example
//!
//! ```
//! use cacs_apps::paper_case_study;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let study = paper_case_study()?;
//! assert_eq!(study.apps.len(), 3);
//! assert_eq!(study.apps[0].params.weight, 0.4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod brake;
mod case_study;
mod dcmotor;
mod programs;
mod servo;
mod throttle;

pub use brake::{wedge_brake_plant, BRAKE_REFERENCE, BRAKE_UMAX};
pub use case_study::{extended_case_study, paper_case_study, CaseStudy, CaseStudyApp};
pub use dcmotor::{dc_motor_plant, DC_MOTOR_REFERENCE, DC_MOTOR_UMAX};
pub use programs::{
    extended_program_for_app, paper_wcet_targets, program_for_app, TABLE1_MICROS,
    THROTTLE_WCET_MICROS,
};
pub use servo::{servo_plant, SERVO_REFERENCE, SERVO_UMAX};
pub use throttle::{throttle_plant, THROTTLE_REFERENCE, THROTTLE_UMAX};
