//! §6.3 over the full stack: "Under control of the System Executive
//! running in the PDME ... new finite-state machines may be downloaded
//! into the smart sensor. This will allow the behavior of the sensor to
//! adapt to its data" — a machine image travels PDME → network → DC and
//! replaces a running machine; the disassembler verifies what shipped.

use mpros::core::{DcId, MachineId, SimDuration};
use mpros::network::NetMessage;
use mpros::sbfr::builtin::{spike_machine, stiction_machine};
use mpros::sbfr::{disassemble, Action, Expr, ProgramBuilder};
use mpros::sim::{ShipboardSim, ShipboardSimConfig};

#[test]
fn pdme_downloads_a_new_machine_into_a_running_dc() {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(1)
            .with_seed(21)
            .with_survey_period(SimDuration::from_secs(60.0)),
    )
    .unwrap();
    // Warm the system up.
    sim.run_for(SimDuration::from_secs(5.0), SimDuration::from_secs(0.25))
        .unwrap();

    // A "closer look" machine: retuned spike detector (the §6.3 adaptive
    // behavior — e.g. a lower edge threshold after a suspicion arises).
    let mut b = ProgramBuilder::new("sensitive spike watch", 0);
    let wait = b.state("Wait");
    let hit = b.state("Hit");
    b.transition(
        wait,
        hit,
        Expr::gt(Expr::Delta(0), Expr::Const(0.2)),
        vec![Action::OrStatus(0, 1)],
    );
    b.transition(
        hit,
        wait,
        Expr::eq(Expr::Status(0), Expr::Const(0.0)),
        vec![],
    );
    let image = b.build().unwrap().encode().unwrap();

    // Operators can audit exactly what is being shipped.
    let listing = disassemble(&image).unwrap();
    assert!(listing.contains("ΔIn:0 > 0.2"), "listing:\n{listing}");

    // Ship it over the simulated LAN to slot 0.
    sim.send_command(
        0,
        &NetMessage::DownloadSbfr {
            dc: DcId::new(1),
            slot: 0,
            image: image.clone(),
        },
    )
    .unwrap();
    // The command is delivered on the next tick and must not disturb the
    // running system.
    sim.run_for(SimDuration::from_secs(10.0), SimDuration::from_secs(0.25))
        .unwrap();

    // A corrupt image shipped the same way is rejected at the DC (the
    // step surfaces the error).
    sim.send_command(
        0,
        &NetMessage::DownloadSbfr {
            dc: DcId::new(1),
            slot: 0,
            image: vec![0xDE, 0xAD],
        },
    )
    .unwrap();
    let err = sim.step(SimDuration::from_secs(0.25));
    assert!(err.is_err(), "corrupt image must surface an error");
    let _ = MachineId::new(1);
}

#[test]
fn downloaded_images_roundtrip_the_wire_bit_for_bit() {
    for image in [
        spike_machine(0).encode().unwrap(),
        stiction_machine(1, 0).encode().unwrap(),
    ] {
        let msg = NetMessage::DownloadSbfr {
            dc: DcId::new(1),
            slot: 1,
            image: image.clone(),
        };
        let frame = mpros::network::encode_message(&msg).unwrap();
        match mpros::network::decode_message(&frame).unwrap() {
            NetMessage::DownloadSbfr { image: back, .. } => assert_eq!(back, image),
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
