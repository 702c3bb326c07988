//! The README's metric catalog lists exactly the series a gateway's text
//! exposition renders: a series added to `Gateway::metrics_text` without a
//! row, or a row left behind by a deleted series, fails here.
//!
//! A series' name is its exposition key up to the label set, so
//! `orco_flushes_total{reason="size"}` and `{reason="drain"}` are one name,
//! and so are every shard's `orco_shard_frames_in_total{shard=".."}`.
//! Every histogram renders `_bucket`, `_count` and `_sum_ns` series; its
//! buckets render once it holds a sample.

use std::collections::BTreeSet;
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::Arc;
use std::time::Duration;

use orcodcs_repro::core::{AsymmetricAutoencoder, Codec};
use orcodcs_repro::serve::scenarios::{codec_config, uniform_frames};
use orcodcs_repro::serve::{Client, Clock, DriftGuard, Gateway, GatewayConfig, Loopback};

const README: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"));

/// The heading the catalog's table follows.
const CATALOG: &str = "#### The metric catalog";

/// A series name: the key up to its label set.
fn name(key: &str) -> &str {
    key.split(['{', ' ']).next().unwrap_or(key)
}

/// Every series name in the README catalog's first column.
fn catalog() -> BTreeSet<String> {
    let after = README.split_once(CATALOG).expect("README has a metric catalog").1;
    let rows = after.lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
    let mut names = BTreeSet::new();
    for row in rows.skip(2) {
        let first = row.split('|').nth(1).expect("a table row has a first cell");
        for quoted in first.split('`').skip(1).step_by(2) {
            names.insert(name(quoted).to_string());
        }
    }
    names
}

/// A 2-shard gateway with drift on, after traffic on both shards: every
/// histogram holds a sample, so every series it can render is rendered.
fn rendered() -> (BTreeSet<String>, String) {
    let cfg = GatewayConfig {
        shards: 2,
        batch_max_frames: 4,
        drift: Some(DriftGuard {
            sample_every: NonZeroU64::MIN,
            threshold: 1.0,
            window: NonZeroUsize::new(2).unwrap(),
            rollback_above: Some(1.0),
        }),
        ..GatewayConfig::default()
    };
    let codec_cfg = codec_config(11);
    let gw = Arc::new(
        Gateway::new(cfg, Clock::manual(Duration::from_micros(100)), move |_| {
            Box::new(AsymmetricAutoencoder::new(&codec_cfg).expect("valid config"))
                as Box<dyn Codec>
        })
        .expect("valid gateway config"),
    );
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let shards: BTreeSet<usize> = (0..8).map(|c| gw.shard_of(c)).collect();
    assert_eq!(shards.len(), 2, "clusters 0..8 reach both shards");
    for cluster in 0..8 {
        client.push(cluster, uniform_frames(cluster, 4, 32).as_view()).expect("push");
        client.pull(cluster, 64).expect("pull");
    }
    let text = gw.metrics_text();
    (text.lines().map(|l| name(l).to_string()).collect(), text)
}

#[test]
fn the_readme_catalogs_exactly_the_rendered_series() {
    let (rendered, text) = rendered();
    let catalog = catalog();
    let missing: Vec<_> = rendered.difference(&catalog).collect();
    let stale: Vec<_> = catalog.difference(&rendered).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "README catalog misses {missing:?} and lists unrendered {stale:?}; rendered:\n{text}"
    );
}
