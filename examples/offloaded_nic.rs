//! End-to-end offloaded matching on the simulated SmartNIC (§IV): RDMA
//! transport, bounce buffers, completion queue, the optimistic engine, and
//! eager/rendezvous protocol handling — plus the §IV-E software fallback
//! when the DPA memory budget is exhausted.
//!
//! Run with: `cargo run --release --example offloaded_nic`

use dpa_sim::bounce::BouncePool;
use dpa_sim::nic::RecvNic;
use dpa_sim::rdma::{connected_pair, eager_packet, rendezvous_packet, RdmaDomain};
use dpa_sim::{DeviceMemory, MatchingService};
use otm_base::{Envelope, MatchConfig, Rank, ReceivePattern, Tag};

fn main() {
    // Wire up a sender endpoint and a receive-side NIC with 64 bounce
    // buffers in NIC memory.
    let (sender, receiver) = connected_pair();
    let domain = RdmaDomain::new();
    let nic = RecvNic::new(receiver, BouncePool::new(64, 4096));

    // Offload matching onto the DPA, charging the BlueField-3 L3 budget.
    let mut budget = DeviceMemory::bluefield3_l3();
    let mut service = MatchingService::offloaded(
        nic,
        domain.clone(),
        MatchConfig::default().with_block_threads(16),
        &mut budget,
    )
    .expect("prototype tables fit the DPA");
    println!(
        "offloaded matching on {} ({} B of DPA memory in use)",
        service.backend_name(),
        budget.used()
    );

    // Pre-post two receives, then let one eager and one rendezvous message
    // arrive.
    let r_small = service
        .post_recv(ReceivePattern::exact(Rank(0), Tag(1)))
        .unwrap();
    let r_big = service
        .post_recv(ReceivePattern::exact(Rank(0), Tag(2)))
        .unwrap();

    sender
        .send(eager_packet(
            Envelope::world(Rank(0), Tag(1)),
            b"hello, eager".to_vec(),
        ))
        .unwrap();
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let (rts, rkey) = rendezvous_packet(&domain, Envelope::world(Rank(0), Tag(2)), payload, 64);
    sender.send(rts).unwrap();

    service.progress().unwrap();
    for done in service.take_completed() {
        let preview = String::from_utf8_lossy(&done.data[..done.data.len().min(12)]).into_owned();
        println!(
            "completed {:?} from {}: {} bytes (head: {:?})",
            done.recv,
            done.env,
            done.data.len(),
            preview
        );
        assert!(done.recv == r_small || done.recv == r_big);
    }
    domain.deregister(rkey);

    // An unexpected message: no receive yet, so it parks in the unexpected
    // store; the late post completes it (Fig. 1a). The post is a command on
    // the DPA's queue, applied by the next progress call.
    sender
        .send(eager_packet(Envelope::world(Rank(3), Tag(9)), vec![42; 8]))
        .unwrap();
    service.progress().unwrap();
    println!("unexpected messages waiting: {}", service.unexpected_len());
    service
        .post_recv(ReceivePattern::any_source(Tag(9)))
        .unwrap();
    service.progress().unwrap();
    let done = service.take_completed();
    println!("late post completed with {} bytes", done[0].data.len());

    // §IV-E: a communicator whose tables do not fit falls back to software
    // tag matching on the host.
    let (fallback_tx, fb_receiver) = connected_pair();
    let mut tiny = DeviceMemory::new(4 * 1024);
    let (fb, offloaded) = MatchingService::offloaded_or_fallback(
        RecvNic::new(fb_receiver, BouncePool::new(4, 256)),
        RdmaDomain::new(),
        MatchConfig::default(),
        &mut tiny,
    );
    println!(
        "tiny DPA budget: offloaded = {offloaded}, backend = {}",
        fb.backend_name()
    );
    drop(fallback_tx);
}
