//! Integration of the CORBA-substitute stack: CDR → GIOP → ORB → Naming →
//! Trading, driving real core-middleware servants over the loopback bus.

use integrade::core::lrm::{LrmConfig, LrmState};
use integrade::core::ncc::SharingPolicy;
use integrade::core::protocol::{
    LaunchReply, LaunchRequest, ReserveReply, ReserveRequest, OP_LAUNCH, OP_RESERVE,
};
use integrade::core::types::{JobId, NodeId, NodeRoles, Platform, ResourceVector};
use integrade::orb::any::AnyValue;
use integrade::orb::cdr::{CdrDecode, CdrEncode, CdrReader};
use integrade::orb::ior::{Endpoint, Ior, ObjectKey};
use integrade::orb::naming::NamingServant;
use integrade::orb::servant::{Servant, ServerException};
use integrade::orb::trading::{ServiceOffer, TraderServant};
use integrade::orb::transport::LoopbackBus;
use integrade::simnet::time::SimTime;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// An LRM activated on the loopback bus. The grid lends its LRMs to the ORB
/// call by call; a bus owns its servants, so this one shares the state with
/// the test and forwards to the same dispatch body at a fixed virtual time.
struct HostedLrm {
    state: Arc<Mutex<LrmState>>,
    now: SimTime,
}

impl Servant for HostedLrm {
    fn type_id(&self) -> &'static str {
        LrmState::TYPE_ID
    }

    fn dispatch(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
    ) -> Result<Vec<u8>, ServerException> {
        self.state
            .lock()
            .unwrap()
            .dispatch(self.now, operation, args)
    }
}

/// The paper's prototype flow, end to end over the full marshalling path:
/// the LRM exports its status as a trader offer; a scheduler-side importer
/// queries the trader with application requirements; the returned offer's
/// IOR is used to negotiate a reservation and launch — every step through
/// GIOP frames.
#[test]
fn trader_mediated_negotiation_over_the_bus() {
    let mut bus = LoopbackBus::new();

    // Cluster-manager node hosts NameService and Trader.
    let manager = bus.add_orb(Endpoint::new(0, 0));
    let ns_ref = bus
        .activate(
            manager,
            ObjectKey::new("NameService"),
            Box::new(NamingServant::new()),
        )
        .unwrap();
    let trader_ref = bus
        .activate(
            manager,
            ObjectKey::new("Trader"),
            Box::new(TraderServant::new(5)),
        )
        .unwrap();

    // Publish the trader in the naming service, resolve it back (clients
    // find services by name, not by endpoint).
    bus.invoke(&ns_ref, "bind", |w| {
        ("services/trading".to_owned(), trader_ref.clone()).encode(w)
    })
    .unwrap();
    let out = bus
        .invoke(&ns_ref, "resolve", |w| "services/trading".encode(w))
        .unwrap();
    let resolved_trader = Ior::from_cdr_bytes(&out).unwrap();
    assert_eq!(resolved_trader, trader_ref);

    // A provider node hosts its LRM servant.
    let provider = bus.add_orb(Endpoint::new(1, 0));
    let now = SimTime::from_secs(100);
    let lrm_state = Arc::new(Mutex::new(LrmState::new(
        NodeId(1),
        ResourceVector::lab_machine(),
        Platform::linux_x86(),
        SharingPolicy::default(),
        NodeRoles::provider(),
        LrmConfig::default(),
    )));
    let lrm_ref = bus
        .activate(
            provider,
            ObjectKey::new("integrade/lrm"),
            Box::new(HostedLrm {
                state: lrm_state.clone(),
                now,
            }),
        )
        .unwrap();

    // LRM exports its node offer to the trader (Information Update
    // Protocol, first update).
    let status = lrm_state.lock().unwrap().current_status();
    let properties: BTreeMap<String, AnyValue> = [
        ("cpu_mips".to_owned(), AnyValue::Long(1000)),
        (
            "free_ram_mb".to_owned(),
            AnyValue::Long(status.free_ram_mb as i64),
        ),
        ("exporting".to_owned(), AnyValue::Bool(status.exporting)),
    ]
    .into_iter()
    .collect();
    bus.invoke(&resolved_trader, "export", |w| {
        ("integrade::node".to_owned(), lrm_ref.clone(), properties).encode(w)
    })
    .unwrap();

    // Importer: query with the paper's example requirements.
    let out = bus
        .invoke(&resolved_trader, "query", |w| {
            (
                "integrade::node".to_owned(),
                "exporting == true and cpu_mips >= 500 and free_ram_mb >= 16".to_owned(),
                "max cpu_mips".to_owned(),
                10u32,
            )
                .encode(w)
        })
        .unwrap();
    let offers = Vec::<ServiceOffer>::from_cdr_bytes(&out).unwrap();
    assert_eq!(offers.len(), 1);
    let target = offers[0].reference.clone();
    assert_eq!(target, lrm_ref);

    // Direct negotiation with the offer's object: reserve then launch.
    let out = bus
        .invoke(&target, OP_RESERVE, |w| {
            ReserveRequest {
                request_id: 0,
                job: JobId(1),
                part: 0,
                ram_mb: 64,
                min_cpu_fraction: 0.1,
                duration_hint_s: 300,
            }
            .encode(w)
        })
        .unwrap();
    let reserve = ReserveReply::from_cdr_bytes(&out).unwrap();
    assert!(reserve.granted, "{}", reserve.reason);

    let out = bus
        .invoke(&target, OP_LAUNCH, |w| {
            LaunchRequest {
                request_id: 0,
                reservation: reserve.reservation,
                job: JobId(1),
                part: 0,
                work_mips_s: 5_000,
                checkpoint_interval_mips_s: 0.0,
                state_bytes: 0,
                resume_version: 0,
                replicas: vec![],
            }
            .encode(w)
        })
        .unwrap();
    let launch = LaunchReply::from_cdr_bytes(&out).unwrap();
    assert!(launch.accepted, "{}", launch.reason);
    assert_eq!(lrm_state.lock().unwrap().running().len(), 1);
}

/// Stringified IORs survive a full round trip through the naming service —
/// the interoperability property CORBA IORs exist for.
#[test]
fn stringified_ior_round_trip_through_naming() {
    let original = Ior::new(
        "IDL:integrade/Grm:1.0",
        Endpoint::new(7, 2048),
        ObjectKey::new("integrade/grm"),
    );
    let stringified = original.to_stringified();
    let parsed = Ior::from_stringified(&stringified).unwrap();

    let mut bus = LoopbackBus::new();
    let ep = bus.add_orb(Endpoint::new(0, 0));
    let ns = bus
        .activate(
            ep,
            ObjectKey::new("NameService"),
            Box::new(NamingServant::new()),
        )
        .unwrap();
    bus.invoke(&ns, "bind", |w| ("grm".to_owned(), parsed).encode(w))
        .unwrap();
    let out = bus.invoke(&ns, "resolve", |w| "grm".encode(w)).unwrap();
    assert_eq!(Ior::from_cdr_bytes(&out).unwrap(), original);
}

/// A refused negotiation surfaces through the whole stack: a busy owner's
/// LRM refuses, and the refusal reason crosses the wire intact.
#[test]
fn negotiation_refusal_propagates() {
    use integrade::usage::sample::{UsageSample, Weekday};
    let mut bus = LoopbackBus::new();
    let provider = bus.add_orb(Endpoint::new(1, 0));
    let lrm_state = Arc::new(Mutex::new(LrmState::new(
        NodeId(1),
        ResourceVector::desktop(),
        Platform::linux_x86(),
        SharingPolicy::default(),
        NodeRoles::provider(),
        LrmConfig::default(),
    )));
    lrm_state.lock().unwrap().observe_owner(
        UsageSample::new(0.9, 0.6, 0.1, 0.1),
        Weekday::new(1),
        600,
    );
    let lrm_ref = bus
        .activate(
            provider,
            ObjectKey::new("integrade/lrm"),
            Box::new(HostedLrm {
                state: lrm_state,
                now: SimTime::ZERO,
            }),
        )
        .unwrap();
    let out = bus
        .invoke(&lrm_ref, OP_RESERVE, |w| {
            ReserveRequest {
                request_id: 0,
                job: JobId(9),
                part: 0,
                ram_mb: 16,
                min_cpu_fraction: 0.05,
                duration_hint_s: 60,
            }
            .encode(w)
        })
        .unwrap();
    let reply = ReserveReply::from_cdr_bytes(&out).unwrap();
    assert!(!reply.granted);
    assert!(reply.reason.contains("not exporting"), "{}", reply.reason);
}

/// Frame authentication end to end in the grid: with the cluster key
/// enabled the workload runs unchanged, while forged / replayed-under-
/// wrong-key frames are rejected at the receiving host — §3's
/// authentication investigation as a working mechanism.
#[test]
fn cluster_key_authenticates_protocol_frames() {
    use integrade::core::asct::{JobSpec, JobState};
    use integrade::core::grid::{GridBuilder, GridConfig, NodeSetup};
    use integrade::orb::giop::Message;
    use integrade::orb::security::ClusterKey;
    use integrade::simnet::topology::HostId;

    let key = ClusterKey::new(0x1234_5678, 0x9ABC_DEF0);
    let config = GridConfig::builder()
        .gupa_warmup_days(0)
        .cluster_key(key)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster((0..3).map(|_| NodeSetup::idle_desktop()).collect());
    let mut grid = builder.build();

    // An attacker on host 2 forges an unsealed status update for the GRM,
    // and another sealed under the wrong key.
    let forged = Message::Request {
        request_id: 99,
        response_expected: false,
        object_key: ObjectKey::new("integrade/grm"),
        operation: "update_status".into(),
        body: vec![0u8; 16].into(),
    }
    .to_wire();
    let manager = grid.manager_host();
    grid.inject_frame(HostId(2), manager, forged.clone());
    grid.inject_frame(
        HostId(2),
        manager,
        integrade::orb::security::seal(ClusterKey::new(0, 0), &forged),
    );

    // Legitimate traffic is unaffected.
    let job = grid.submit(JobSpec::sequential("authed", 1500));
    grid.run_until(SimTime::from_secs(1800));
    assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
    assert_eq!(grid.log().count("auth.reject"), 2, "both forgeries dropped");
    // No ORB-level errors: forgeries never reached a servant.
    assert_eq!(grid.log().count("orb.error"), 0);
}
