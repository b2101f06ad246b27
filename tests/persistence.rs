//! Persistence integration tests: the artifacts an in-situ workflow
//! actually ships between nodes and timesteps (fields, clouds, models,
//! pipelines) round-trip through their on-disk formats.

use fillvoid::core::pipeline::{FcnnPipeline, FineTuneSpec, PipelineConfig};
use fillvoid::field::io as field_io;
use fillvoid::nn::serialize as nn_io;
use fillvoid::prelude::*;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fillvoid_persistence").join(name);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn small_pipeline(field: &ScalarField, seed: u64) -> FcnnPipeline {
    let cfg = PipelineConfig {
        hidden: vec![24, 12],
        trainer: fillvoid::nn::TrainerConfig {
            epochs: 8,
            ..PipelineConfig::small_for_tests().trainer
        },
        ..PipelineConfig::small_for_tests()
    };
    FcnnPipeline::train(field, &cfg, seed).expect("train")
}

#[test]
fn field_vtk_chain_preserves_reconstruction_input() {
    // field -> .vtk -> field -> sample -> reconstruct works end to end.
    let sim = Combustion::builder().resolution([12, 16, 6]).timesteps(4).build();
    let field = sim.timestep(2);
    let mut buf = Vec::new();
    field_io::write_vtk_ascii(&field, "mixfrac", &mut buf).expect("write vtk");
    let restored = field_io::read_vtk_ascii(buf.as_slice()).expect("read vtk");
    let cloud = ImportanceSampler::default().sample(&restored, 0.05, 1);
    let recon = LinearReconstructor::default()
        .reconstruct(&cloud, restored.grid())
        .expect("reconstruct");
    assert_eq!(recon.len(), field.len());
}

#[test]
fn binary_field_roundtrip_through_file() {
    let sim = Hurricane::builder().resolution([10, 10, 6]).timesteps(3).build();
    let field = sim.timestep(1);
    let path = tmp_dir("field").join("t1.fvf");
    field_io::save(&field, &path).expect("save");
    let restored = field_io::load(&path).expect("load");
    assert_eq!(field, restored);
    std::fs::remove_file(path).ok();
}

#[test]
fn pipeline_file_roundtrip_preserves_reconstructions() {
    let sim = Hurricane::builder().resolution([12, 12, 6]).timesteps(3).build();
    let field = sim.timestep(1);
    let pipeline = small_pipeline(&field, 5);
    let path = tmp_dir("pipeline").join("model.fvpl");
    pipeline.save(&path).expect("save");
    let restored = FcnnPipeline::load(&path).expect("load");
    let cloud = ImportanceSampler::default().sample(&field, 0.05, 3);
    assert_eq!(
        pipeline.reconstruct(&cloud, field.grid()).unwrap(),
        restored.reconstruct(&cloud, field.grid()).unwrap()
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn case2_partial_checkpoints_reassemble_across_timesteps() {
    // The paper's Case-2 storage scheme: one full base model + per-timestep
    // tail checkpoints. Restoring base+tail must reproduce the fine-tuned
    // model's predictions exactly.
    let sim = Hurricane::builder().resolution([12, 12, 6]).timesteps(6).build();
    let field0 = sim.timestep(0);
    let field5 = sim.timestep(5);

    let mut base = small_pipeline(&field0, 9);
    let mut base_model_bytes = Vec::new();
    nn_io::write_model(base.mlp(), &mut base_model_bytes).expect("save base");

    // Fine-tune Case 2 on the later timestep and save just the tail.
    base.fine_tune(
        &field5,
        &FineTuneSpec {
            epochs: 4,
            ..FineTuneSpec::case2()
        },
    )
    .expect("fine-tune");
    let mut tuned_model = base.mlp().clone();
    tuned_model.freeze_all_but_last(2);
    let mut tail_bytes = Vec::new();
    nn_io::save_partial(&tuned_model, &mut tail_bytes).expect("save tail");
    assert!(
        tail_bytes.len() < base_model_bytes.len(),
        "tail checkpoint should be smaller than the full model"
    );

    // Reassemble: load the pretrained base, then apply the tail.
    let mut reassembled = nn_io::read_model(base_model_bytes.as_slice()).expect("load base");
    reassembled.freeze_all_but_last(2);
    nn_io::load_partial_into(&mut reassembled, tail_bytes.as_slice()).expect("load tail");
    assert_eq!(&reassembled, &tuned_model);
}

#[test]
fn cloud_vtk_export_has_all_samples() {
    let sim = IonizationFront::builder().resolution([12, 8, 8]).timesteps(3).build();
    let field = sim.timestep(1);
    let cloud = ImportanceSampler::default().sample(&field, 0.1, 7);
    let mut buf = Vec::new();
    cloud.write_vtk_ascii("density", &mut buf).expect("write");
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains(&format!("POINTS {} float", cloud.len())));
    // every sampled value appears in the file
    let first = format!("{}", cloud.values()[0]);
    assert!(text.contains(&first));
}

// ---------------------------------------------------------------------------
// Fault-injection coverage: every shipped artifact must turn corruption into
// a typed error, and every save must be atomic.
// ---------------------------------------------------------------------------

#[test]
fn field_checkpoint_truncated_at_every_byte_boundary_errors() {
    let sim = Hurricane::builder().resolution([6, 5, 4]).timesteps(2).build();
    let field = sim.timestep(1);
    let mut buf = Vec::new();
    field_io::write_bin(&field, &mut buf).expect("write");
    for keep in 0..buf.len() {
        let r = fillvoid::field::faults::TruncatingReader::new(buf.as_slice(), keep);
        assert!(
            field_io::read_bin(r).is_err(),
            "truncation to {keep}/{} bytes went undetected",
            buf.len()
        );
    }
    // and the intact stream still loads
    assert_eq!(field_io::read_bin(buf.as_slice()).expect("intact"), field);
}

#[test]
fn field_checkpoint_single_bit_corruption_is_detected_everywhere() {
    let sim = Hurricane::builder().resolution([6, 5, 4]).timesteps(2).build();
    let field = sim.timestep(0);
    let mut buf = Vec::new();
    field_io::write_bin(&field, &mut buf).expect("write");
    for offset in 0..buf.len() as u64 {
        let r = fillvoid::field::faults::BitFlipReader::new(buf.as_slice(), offset, 0x20);
        assert!(
            field_io::read_bin(r).is_err(),
            "bit flip at byte {offset} went undetected"
        );
    }
}

#[test]
fn model_checkpoint_bit_flips_and_truncation_are_detected() {
    let sim = Hurricane::builder().resolution([10, 10, 6]).timesteps(2).build();
    let pipeline = small_pipeline(&sim.timestep(0), 11);
    let mut buf = Vec::new();
    nn_io::write_model(pipeline.mlp(), &mut buf).expect("write");
    // every 16th byte keeps runtime reasonable; unit tests cover all offsets
    for offset in (0..buf.len() as u64).step_by(16) {
        let r = fillvoid::field::faults::BitFlipReader::new(buf.as_slice(), offset, 0x01);
        assert!(
            nn_io::read_model(r).is_err(),
            "model bit flip at byte {offset} went undetected"
        );
    }
    for keep in (0..buf.len()).step_by(7) {
        let r = fillvoid::field::faults::TruncatingReader::new(buf.as_slice(), keep);
        assert!(nn_io::read_model(r).is_err(), "model truncated to {keep} loaded");
    }
}

#[test]
fn interrupted_write_leaves_no_file_under_the_real_name() {
    use fillvoid::field::faults::FailingWriter;
    let sim = Hurricane::builder().resolution([8, 8, 4]).timesteps(2).build();
    let field = sim.timestep(0);
    // a write that dies mid-stream produces a prefix that must not load
    let mut w = FailingWriter::new(Vec::new(), 64);
    assert!(field_io::write_bin(&field, &mut w).is_err());
    let torn = w.into_inner();
    assert!(field_io::read_bin(torn.as_slice()).is_err(), "torn prefix loaded");

    // atomic save: the destination never exists half-written, and failed
    // attempts leave no temp files behind
    let dir = tmp_dir("atomic");
    let path = dir.join("field.fvf");
    field_io::save(&field, &path).expect("save");
    assert_eq!(field_io::load(&path).expect("load"), field);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(fillvoid::runtime::fs::TMP_SUFFIX))
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_store_survives_leftover_temp_files_and_torn_generations() {
    use fillvoid::core::checkpoint::CheckpointStore;
    let sim = Hurricane::builder().resolution([10, 10, 6]).timesteps(2).build();
    let pipeline = small_pipeline(&sim.timestep(0), 13);
    let dir = tmp_dir("store");
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut store = CheckpointStore::open(&dir, 3).expect("open");
        store.save(&pipeline).expect("gen 0");
        store.save(&pipeline).expect("gen 1");
        store.save(&pipeline).expect("gen 2");
    }
    // a crash mid-save leaves a stray temp; a later crash tears the newest
    std::fs::write(dir.join("ckpt-00000003.fvck.9999.tmp"), b"garbage").unwrap();
    let store = CheckpointStore::open(&dir, 3).expect("reopen");
    let newest = store.latest().expect("has generations");
    let path = store.path_for(newest);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 4]).unwrap();

    let (gen, restored) = store
        .load_latest()
        .expect("walk generations")
        .expect("an older generation survives");
    assert_eq!(gen, newest - 1);
    assert_eq!(restored.mlp(), pipeline.mlp());
    std::fs::remove_dir_all(&dir).ok();
}
