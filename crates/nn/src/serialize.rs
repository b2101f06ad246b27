//! Binary model checkpoints.
//!
//! A checkpoint is the artifact the paper's in-situ workflow "carries"
//! between timesteps: either the whole model (fine-tuning Case 1) or — for
//! Case 2, where earlier layers are frozen and shared — just the trailing
//! trainable layers, written by [`save_partial`] and merged back with
//! [`load_partial_into`].
//!
//! Format v2 (little-endian, current):
//!
//! ```text
//! magic "FVNN" | version u32 = 2 | payload_len u64 | payload | crc32 u32
//! payload = layer count u32, then per layer: out u32, in u32,
//!           activation u8, trainable u8, weights (out·in f32),
//!           bias (out f32)
//! ```
//!
//! The explicit payload length and trailing CRC-32 make a truncated or
//! bit-flipped checkpoint a typed [`NnError::Format`] at load time — the
//! property the in-situ `CheckpointStore` relies on to fall back to an
//! older generation. Version-1 files (no length, no CRC) remain readable.
//! File saves go through [`fv_runtime::fs::write_file_atomic`] (temp +
//! fsync + rename).

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::Dense;
use crate::mlp::Mlp;
use fv_linalg::Matrix;
use fv_runtime::checksum::Crc32;
use fv_runtime::fs::write_file_atomic;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"FVNN";
const VERSION: u32 = 2;

/// Ceiling on a v2 payload (4 GiB) — anything larger is a hostile header.
const MAX_PAYLOAD: u64 = 1 << 32;

/// Serialize a full model.
pub fn write_model<W: Write>(mlp: &Mlp, w: W) -> Result<(), NnError> {
    write_layers(mlp.layers(), w)
}

/// Serialize only the *trainable* tail of a model (fine-tuning Case 2's
/// per-timestep artifact).
pub fn save_partial<W: Write>(mlp: &Mlp, w: W) -> Result<(), NnError> {
    let tail: Vec<Dense> = mlp
        .layers()
        .iter()
        .filter(|l| l.trainable)
        .cloned()
        .collect();
    write_layers(&tail, w)
}

fn payload_size(layers: &[Dense]) -> u64 {
    let mut bytes = 4u64; // layer count
    for layer in layers {
        bytes += 4 + 4 + 2; // out, in, activation+trainable
        bytes += 4 * (layer.output_size() as u64) * (layer.input_size() as u64);
        bytes += 4 * layer.output_size() as u64;
    }
    bytes
}

fn write_layers<W: Write>(layers: &[Dense], w: W) -> Result<(), NnError> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&payload_size(layers).to_le_bytes())?;
    let mut crc = Crc32::new();
    let mut put = |w: &mut BufWriter<W>, bytes: &[u8]| -> Result<(), NnError> {
        crc.update(bytes);
        w.write_all(bytes)?;
        Ok(())
    };
    put(&mut w, &(layers.len() as u32).to_le_bytes())?;
    for layer in layers {
        put(&mut w, &(layer.output_size() as u32).to_le_bytes())?;
        put(&mut w, &(layer.input_size() as u32).to_le_bytes())?;
        put(&mut w, &[layer.activation.id(), u8::from(layer.trainable)])?;
        for &v in layer.weights.as_slice() {
            put(&mut w, &v.to_le_bytes())?;
        }
        for &v in &layer.bias {
            put(&mut w, &v.to_le_bytes())?;
        }
    }
    w.write_all(&crc.finish().to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Deserialize a full model.
pub fn read_model<R: Read>(r: R) -> Result<Mlp, NnError> {
    let layers = read_layers(r)?;
    Mlp::from_layers(layers)
}

/// Read a partial checkpoint and replace the trailing trainable layers of
/// `mlp` with it. The layer shapes must match the current trainable tail.
pub fn load_partial_into<R: Read>(mlp: &mut Mlp, r: R) -> Result<(), NnError> {
    let tail = read_layers(r)?;
    let trainable: Vec<usize> = mlp.trainable_layers();
    if tail.len() != trainable.len() {
        return Err(NnError::Format(format!(
            "partial checkpoint has {} layers, model has {} trainable",
            tail.len(),
            trainable.len()
        )));
    }
    for (slot, new_layer) in trainable.into_iter().zip(tail) {
        let cur = &mlp.layers()[slot];
        if cur.input_size() != new_layer.input_size()
            || cur.output_size() != new_layer.output_size()
        {
            return Err(NnError::Format(format!(
                "layer {slot} shape mismatch: {}x{} vs {}x{}",
                cur.output_size(),
                cur.input_size(),
                new_layer.output_size(),
                new_layer.input_size()
            )));
        }
        mlp.layers_mut()[slot] = new_layer;
    }
    Ok(())
}

fn read_layers<R: Read>(r: R) -> Result<Vec<Dense>, NnError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NnError::Format(format!("bad magic {magic:?}")));
    }
    let version = read_u32(&mut r)?;
    match version {
        1 => parse_layer_list(&mut r),
        2 => {
            let payload_len = read_u64(&mut r)?;
            if !(4..=MAX_PAYLOAD).contains(&payload_len) {
                return Err(NnError::Format(format!(
                    "implausible payload length {payload_len}"
                )));
            }
            let payload = read_payload(&mut r, payload_len)?;
            let mut crc_buf = [0u8; 4];
            r.read_exact(&mut crc_buf)?;
            let stored = u32::from_le_bytes(crc_buf);
            let computed = fv_runtime::checksum::crc32(&payload);
            if stored != computed {
                return Err(NnError::Format(format!(
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )));
            }
            let mut cursor = payload.as_slice();
            let layers = parse_layer_list(&mut cursor)?;
            if !cursor.is_empty() {
                return Err(NnError::Format(format!(
                    "{} trailing bytes after last layer",
                    cursor.len()
                )));
            }
            Ok(layers)
        }
        v => Err(NnError::Format(format!("unsupported version {v}"))),
    }
}

/// Read exactly `len` payload bytes in bounded chunks, so a corrupt length
/// field hits a read error before a multi-gigabyte allocation.
fn read_payload<R: Read>(r: &mut R, len: u64) -> Result<Vec<u8>, NnError> {
    const CHUNK: u64 = 1 << 16;
    let mut payload = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(CHUNK) as usize;
        let start = payload.len();
        payload.resize(start + take, 0);
        r.read_exact(&mut payload[start..])?;
        remaining -= take as u64;
    }
    Ok(payload)
}

fn parse_layer_list<R: Read>(r: &mut R) -> Result<Vec<Dense>, NnError> {
    let count = read_u32(r)? as usize;
    if count > 1024 {
        return Err(NnError::Format(format!("implausible layer count {count}")));
    }
    let mut layers = Vec::with_capacity(count);
    for _ in 0..count {
        let out = read_u32(r)? as usize;
        let inp = read_u32(r)? as usize;
        if out.checked_mul(inp).is_none() || out * inp > (1 << 30) {
            return Err(NnError::Format(format!("implausible layer {out}x{inp}")));
        }
        let mut two = [0u8; 2];
        r.read_exact(&mut two)?;
        let activation = Activation::from_id(two[0])
            .ok_or_else(|| NnError::Format(format!("unknown activation id {}", two[0])))?;
        let trainable = two[1] != 0;
        let mut wdata = vec![0.0f32; out * inp];
        read_f32s(r, &mut wdata)?;
        let mut bias = vec![0.0f32; out];
        read_f32s(r, &mut bias)?;
        layers.push(Dense {
            weights: Matrix::from_vec(out, inp, wdata).expect("len computed"),
            bias,
            activation,
            trainable,
        });
    }
    Ok(layers)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, NnError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, NnError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f32s<R: Read>(r: &mut R, out: &mut [f32]) -> Result<(), NnError> {
    let mut buf = [0u8; 4];
    for v in out {
        r.read_exact(&mut buf)?;
        *v = f32::from_le_bytes(buf);
    }
    Ok(())
}

/// Save a model to a file (atomic: temp + fsync + rename).
pub fn save(mlp: &Mlp, path: impl AsRef<Path>) -> Result<(), NnError> {
    write_file_atomic(path, |w| write_model(mlp, &mut *w))
}

/// Load a model from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Mlp, NnError> {
    read_model(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bit_exact() {
        let mlp = Mlp::regression(23, &[32, 16], 4, 11);
        let mut buf = Vec::new();
        write_model(&mlp, &mut buf).unwrap();
        let restored = read_model(buf.as_slice()).unwrap();
        assert_eq!(mlp, restored);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let mlp = Mlp::regression(4, &[8], 2, 1);
        let mut buf = Vec::new();
        write_model(&mlp, &mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_model(bad.as_slice()), Err(NnError::Format(_))));

        let mut badv = buf.clone();
        badv[4] = 99;
        assert!(matches!(read_model(badv.as_slice()), Err(NnError::Format(_))));

        let truncated = &buf[..buf.len() - 5];
        assert!(matches!(read_model(truncated), Err(NnError::Io(_))));
    }

    #[test]
    fn partial_checkpoint_roundtrip() {
        // Pretrain a model, freeze all but last 2, save the tail, then
        // restore the tail into a fresh copy of the pretrained base.
        let mut donor = Mlp::regression(6, &[16, 12, 8], 2, 3);
        donor.freeze_all_but_last(2);
        // perturb the trainable tail so it differs from the base
        for idx in donor.trainable_layers() {
            donor.layers_mut()[idx].bias[0] = 42.0;
        }
        let mut tail_buf = Vec::new();
        save_partial(&donor, &mut tail_buf).unwrap();
        // tail checkpoint is much smaller than the full model
        let mut full_buf = Vec::new();
        write_model(&donor, &mut full_buf).unwrap();
        assert!(tail_buf.len() < full_buf.len() / 2);

        let mut receiver = Mlp::regression(6, &[16, 12, 8], 2, 3);
        receiver.freeze_all_but_last(2);
        load_partial_into(&mut receiver, tail_buf.as_slice()).unwrap();
        assert_eq!(receiver, donor);
    }

    #[test]
    fn partial_mismatch_is_rejected() {
        let mut mlp = Mlp::regression(6, &[16, 12, 8], 2, 3);
        mlp.freeze_all_but_last(1); // expects 1 trainable layer
        let mut donor = Mlp::regression(6, &[16, 12, 8], 2, 3);
        donor.freeze_all_but_last(2);
        let mut buf = Vec::new();
        save_partial(&donor, &mut buf).unwrap();
        assert!(matches!(
            load_partial_into(&mut mlp, buf.as_slice()),
            Err(NnError::Format(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fvnn_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fvnn");
        let mlp = Mlp::regression(5, &[8], 3, 7);
        save(&mlp, &path).unwrap();
        assert_eq!(load(&path).unwrap(), mlp);
        // atomic save leaves no temp droppings
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "leftover temp file {name:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// The v1 layout (no payload length, no CRC), kept to prove old
    /// checkpoints still load.
    fn write_layers_v1(layers: &[Dense], buf: &mut Vec<u8>) {
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(layers.len() as u32).to_le_bytes());
        for layer in layers {
            buf.extend_from_slice(&(layer.output_size() as u32).to_le_bytes());
            buf.extend_from_slice(&(layer.input_size() as u32).to_le_bytes());
            buf.push(layer.activation.id());
            buf.push(u8::from(layer.trainable));
            for &v in layer.weights.as_slice() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            for &v in &layer.bias {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    #[test]
    fn legacy_v1_models_still_load() {
        let mlp = Mlp::regression(7, &[12, 6], 3, 5);
        let mut v1 = Vec::new();
        write_layers_v1(mlp.layers(), &mut v1);
        let restored = read_model(v1.as_slice()).unwrap();
        assert_eq!(restored, mlp);
    }

    #[test]
    fn v2_detects_any_single_bit_flip_in_payload() {
        let mlp = Mlp::regression(4, &[6], 2, 9);
        let mut buf = Vec::new();
        write_model(&mlp, &mut buf).unwrap();
        // payload starts after magic(4) + version(4) + payload_len(8)
        for offset in 16..buf.len() - 4 {
            let mut bad = buf.clone();
            bad[offset] ^= 0x04;
            assert!(
                matches!(read_model(bad.as_slice()), Err(NnError::Format(_))),
                "flip at byte {offset} went undetected"
            );
        }
    }

    #[test]
    fn v2_truncation_at_every_boundary_is_an_error() {
        let mlp = Mlp::regression(3, &[4], 2, 13);
        let mut buf = Vec::new();
        write_model(&mlp, &mut buf).unwrap();
        for keep in 0..buf.len() {
            assert!(
                read_model(&buf[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn hostile_payload_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_model(buf.as_slice()).unwrap_err();
        assert!(matches!(err, NnError::Format(_)), "got {err:?}");
    }
}
