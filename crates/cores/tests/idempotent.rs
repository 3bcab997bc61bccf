//! `implement` is idempotent on a placed core: a second call finds every
//! LUT mask, PIP, net, sink and port binding already in place. This is
//! what lets `replace_with` keep a core's routes when a change leaves
//! its wiring as it was.

use jbits::snapshot;
use jroute::{EndPoint, PortId, Router};
use jroute_cores::{
    Accumulator, ConstAdder, ConstMultiplier, Counter, Lfsr, Register, RtpCore, StimulusBank,
};
use virtex::{Device, Family, RowCol};

fn ports(ids: &[PortId]) -> Vec<EndPoint> {
    ids.iter().map(|&p| p.into()).collect()
}

#[test]
fn second_implement_changes_nothing_for_every_core() {
    let mut r = Router::new(&Device::new(Family::Xcv300));
    let mut stim = StimulusBank::new(4, RowCol::new(2, 2));
    let mut mul = ConstMultiplier::new(3, 8, RowCol::new(2, 6));
    let mut add = ConstAdder::new(8, 17, RowCol::new(2, 10));
    let mut ctr = Counter::new(4, 0, RowCol::new(2, 14));
    let mut reg = Register::new(4, 0, RowCol::new(2, 18));
    let mut acc_in = StimulusBank::new(4, RowCol::new(14, 2));
    let mut acc = Accumulator::new(4, 1, RowCol::new(2, 22));
    let mut lfsr = Lfsr::new(4, 1, RowCol::new(2, 26));
    {
        let cores: [&mut dyn RtpCore; 8] = [
            &mut stim,
            &mut mul,
            &mut add,
            &mut ctr,
            &mut reg,
            &mut acc_in,
            &mut acc,
            &mut lfsr,
        ];
        for core in cores {
            core.implement(&mut r).unwrap();
        }
    }
    // Every port group with a neighbour is connected, so rebinding has
    // live connections to keep.
    r.route_bus(&ports(stim.out_ports()), &ports(mul.a_ports()))
        .unwrap();
    r.route_bus(&ports(mul.p_ports()), &ports(add.a_ports()))
        .unwrap();
    r.route_bus(&ports(ctr.q_ports()), &ports(reg.d_ports()))
        .unwrap();
    r.route_bus(&ports(acc_in.out_ports()), &ports(acc.a_ports()))
        .unwrap();
    assert!(r.remembered().is_empty());

    let cores: [&mut dyn RtpCore; 8] = [
        &mut stim,
        &mut mul,
        &mut add,
        &mut ctr,
        &mut reg,
        &mut acc_in,
        &mut acc,
        &mut lfsr,
    ];
    for core in cores {
        let name = core.name().to_string();
        r.bits_mut().frames_mut().take();
        let config = snapshot(r.bits());
        let census = r.nets().census();
        let stats = r.stats().clone();

        core.implement(&mut r).unwrap();

        assert_eq!(snapshot(r.bits()), config, "{name}: PIPs or LUTs moved");
        assert_eq!(r.nets().census(), census, "{name}: net census moved");
        assert!(r.remembered().is_empty(), "{name}: left remembered");
        assert_eq!(r.stats().pips_set, stats.pips_set, "{name}: pips_set");
        assert_eq!(
            r.stats().maze_searches,
            stats.maze_searches,
            "{name}: maze_searches"
        );
        assert!(
            r.bits().frames().is_clean(),
            "{name}: touched {} frames",
            r.bits().frames().dirty_count()
        );
    }
}
