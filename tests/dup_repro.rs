//! Duplicate victims: a `Replace` that names one victim twice, and two
//! requests of one batch that name the same victim, at every worker
//! count. The duplicate is refused as `UnknownTarget` and the victim's
//! net and segments survive it.

use jroute::pathfinder::NetSpec;
use jroute::Pin;
use jroute_svc::{Reject, RequestKind, RequestOutcome, RoutingService, ServiceConfig};
use virtex::{wire, Device, Family};

#[test]
fn duplicate_victims_in_one_replace() {
    let dev = Device::new(Family::Xcv50);
    let spec = |row: u16| {
        NetSpec::new(
            Pin::new(row, 2, wire::S0_YQ),
            vec![Pin::new(row + 2, 6, wire::S0_F3)],
        )
    };
    for threads in [1, 4] {
        let mut svc = RoutingService::new(
            &dev,
            ServiceConfig {
                threads,
                audit: true,
                ..Default::default()
            },
        );
        let a = svc.submit(RequestKind::Route(spec(2))).unwrap();
        assert!(svc.run_batch().outcome(a).unwrap().is_success());
        let a_net = svc.nets_of(a).unwrap()[0];
        let before = svc.db().census();

        let twice = svc
            .submit(RequestKind::Replace {
                remove: vec![a, a],
                add: vec![],
            })
            .unwrap();
        let report = svc.run_batch();
        assert_eq!(
            report.outcome(twice),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(a))),
            "threads {threads}"
        );
        assert_eq!(report.leaked_segments, Some(0));
        assert_eq!(svc.nets_of(a), Some(&[a_net][..]));
        assert_eq!(
            svc.db().census(),
            before,
            "threads {threads}: victim changed"
        );

        // Across requests: the first Replace consumes `a` at its commit,
        // the second names it again and is refused.
        let first = svc
            .submit(RequestKind::Replace {
                remove: vec![a],
                add: vec![spec(6)],
            })
            .unwrap();
        let second = svc
            .submit(RequestKind::Replace {
                remove: vec![a],
                add: vec![spec(10)],
            })
            .unwrap();
        let report = svc.run_batch();
        assert!(
            report.outcome(first).unwrap().is_success(),
            "threads {threads}"
        );
        assert_eq!(
            report.outcome(second),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(a))),
            "threads {threads}"
        );
        assert_eq!(report.leaked_segments, Some(0));
        assert_eq!(svc.nets_of(a), None);
        assert_eq!(
            svc.db().len(),
            1,
            "threads {threads}: only the first add remains"
        );
    }
}
