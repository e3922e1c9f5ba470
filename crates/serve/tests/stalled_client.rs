//! A client that stalls inside a frame must neither hold up other
//! clients nor block `PredictServer::shutdown`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use buckwild::prelude::*;
use buckwild_dataset::generate;
use buckwild_serve::{PredictClient, PredictServer, ServeConfig, SnapshotHub};

const FEATURES: usize = 16;

#[test]
fn stalled_client_blocks_neither_other_clients_nor_shutdown() {
    let problem = generate::logistic_dense(FEATURES, 60, 5);
    let hub = Arc::new(SnapshotHub::new());
    let config = ServeConfig::new("127.0.0.1:0").shards(2);
    let server = PredictServer::start(Arc::clone(&hub), &config).expect("bind server");
    SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().expect("signature"))
        .epochs(1)
        .on_snapshot(hub.observer())
        .train(&problem.data)
        .expect("train");

    // One byte of a length prefix, then silence: the accepting shard is
    // now mid-frame on this connection.
    let mut stalled = TcpStream::connect(server.local_addr()).expect("tcp connect");
    stalled.write_all(&[1]).expect("send one prefix byte");
    let accepted_by = Instant::now() + Duration::from_secs(10);
    while server.metrics().counter("serve.connections").unwrap_or(0) == 0 {
        assert!(
            Instant::now() < accepted_by,
            "stalled client never accepted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The other shard serves a second client meanwhile.
    let mut client = PredictClient::connect(server.local_addr()).expect("connect");
    let response = client
        .predict(&[0.25f32; FEATURES], FEATURES)
        .expect("predict while a peer stalls");
    assert!(response.is_ok());
    drop(client);

    // Shut down on another thread so a hang fails the test instead of
    // blocking it.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let metrics = finished
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown must return within 1 s with a client stalled mid-frame");
    assert_eq!(metrics.counter("serve.requests"), Some(1));
    drop(stalled);
}
