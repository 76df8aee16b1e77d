//! Model and optimizer state (de)serialization for checkpoints.
//!
//! Every [`PolicyValueNet`] exposes its trainable tensors through
//! [`PolicyValueNet::visit_params`], which walks them in a fixed,
//! model-defined order. This module serializes that walk into a
//! [`Value`] tree — parameter values plus the per-parameter Adam moments
//! carried by [`Param`](crate::param::Param) — so *any* backbone (MLP,
//! Transformer, or a third-party `PolicyValueNet`) checkpoints without
//! per-model code. Gradients are transient and are not stored; loading
//! zeroes them.
//!
//! Floats are written as their exact `f64` widening (see
//! [`crate::value`]), so a save/load round trip is bit-exact.
//!
//! # Example
//!
//! ```
//! use autocat_nn::models::{MlpConfig, MlpPolicy, PolicyValueNet};
//! use autocat_nn::state::{load_params, params_to_value};
//! use rand::SeedableRng;
//!
//! let cfg = MlpConfig::new(6, 3);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = MlpPolicy::new(&cfg, &mut rng);
//! let saved = params_to_value(&mut net);
//!
//! // A differently-initialized clone becomes identical after loading.
//! let mut other = MlpPolicy::new(&cfg, &mut rng);
//! load_params(&mut other, &saved).unwrap();
//! assert_eq!(params_to_value(&mut other), saved);
//! ```

use crate::matrix::Matrix;
use crate::models::PolicyValueNet;
use crate::optim::Adam;
use crate::value::{req, u64_from, u64_value, Value};

fn floats_to_value(data: &[f32]) -> Value {
    Value::Array(data.iter().map(|&x| Value::Float(f64::from(x))).collect())
}

fn floats_from_value(value: &Value) -> Result<Vec<f32>, String> {
    value.as_array()?.iter().map(Value::as_f32).collect()
}

/// Encodes every parameter of `net` — values and Adam moments — in
/// `visit_params` order.
///
/// Takes `&mut` because [`PolicyValueNet::visit_params`] does; the network
/// is not modified.
pub fn params_to_value(net: &mut dyn PolicyValueNet) -> Value {
    let mut params = Vec::new();
    net.visit_params(&mut |p| {
        let mut table = Value::table();
        table.set("rows", Value::Int(p.value.rows() as i64));
        table.set("cols", Value::Int(p.value.cols() as i64));
        table.set("value", floats_to_value(p.value.as_slice()));
        table.set("m", floats_to_value(p.m.as_slice()));
        table.set("v", floats_to_value(p.v.as_slice()));
        params.push(table);
    });
    Value::Array(params)
}

/// Loads parameters saved by [`params_to_value`] into `net`, which must
/// have the same architecture (same parameter walk, same shapes).
/// Gradients are zeroed.
///
/// A checkpoint is outside input, so every value and moment must be
/// finite: the sparse input layer and the narrow head kernels give the
/// dense kernels' bits only for finite weights.
///
/// # Errors
///
/// Returns an error on a parameter-count or shape mismatch (a shape
/// whose element count overflows included), a non-finite value or
/// moment, or malformed input; `net` may be partially overwritten in
/// that case.
pub fn load_params(net: &mut dyn PolicyValueNet, value: &Value) -> Result<(), String> {
    struct Entry {
        rows: usize,
        cols: usize,
        value: Vec<f32>,
        m: Vec<f32>,
        v: Vec<f32>,
    }
    let entries: Vec<Entry> = value
        .as_array()?
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let table = item.as_table().map_err(|e| format!("param {i}: {e}"))?;
            let entry = Entry {
                rows: req(table, "rows")?.as_usize()?,
                cols: req(table, "cols")?.as_usize()?,
                value: floats_from_value(req(table, "value")?)?,
                m: floats_from_value(req(table, "m")?)?,
                v: floats_from_value(req(table, "v")?)?,
            };
            let n = entry.rows.checked_mul(entry.cols).ok_or_else(|| {
                format!(
                    "param {i}: shape {}x{} overflows the element count",
                    entry.rows, entry.cols
                )
            })?;
            for (name, data) in [("value", &entry.value), ("m", &entry.m), ("v", &entry.v)] {
                if data.len() != n {
                    return Err(format!(
                        "param {i}: `{name}` has {} elements, shape {}x{} needs {n}",
                        data.len(),
                        entry.rows,
                        entry.cols
                    ));
                }
                if let Some(j) = data.iter().position(|x| !x.is_finite()) {
                    return Err(format!(
                        "param {i}: `{name}` element {j} is {}, not finite",
                        data[j]
                    ));
                }
            }
            Ok(entry)
        })
        .collect::<Result<_, String>>()?;

    let mut it = entries.into_iter();
    let mut index = 0usize;
    let mut error: Option<String> = None;
    net.visit_params(&mut |p| {
        if error.is_some() {
            return;
        }
        match it.next() {
            None => error = Some("checkpoint has fewer parameters than the model".into()),
            Some(entry) => {
                if (p.value.rows(), p.value.cols()) != (entry.rows, entry.cols) {
                    error = Some(format!(
                        "param {index}: model shape {}x{} vs checkpoint {}x{}",
                        p.value.rows(),
                        p.value.cols(),
                        entry.rows,
                        entry.cols
                    ));
                    return;
                }
                p.value = Matrix::from_vec(entry.rows, entry.cols, entry.value);
                p.m = Matrix::from_vec(entry.rows, entry.cols, entry.m);
                p.v = Matrix::from_vec(entry.rows, entry.cols, entry.v);
                p.zero_grad();
            }
        }
        index += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    if it.next().is_some() {
        return Err("checkpoint has more parameters than the model".into());
    }
    Ok(())
}

/// The workspace's determinism-fingerprint hash: 64-bit FNV-1a over a
/// byte stream. Every bitwise-equality gate (weight digests here, eval
/// stat digests in `autocat-ppo`) folds through this one kernel so the
/// digest discipline can only change in one place.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A 64-bit FNV-1a digest over the exact bit patterns of every parameter
/// value (in `visit_params` order). Two models digest equal **iff** their
/// weights are bit-identical — the currency of the cross-thread-count
/// determinism tests and the `train-bench` harness.
///
/// Takes `&mut` because [`PolicyValueNet::visit_params`] does; the network
/// is not modified.
pub fn params_digest(net: &mut dyn PolicyValueNet) -> u64 {
    let mut bytes = Vec::new();
    net.visit_params(&mut |p| {
        for &x in p.value.as_slice() {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    });
    fnv1a(bytes)
}

/// Encodes an [`Adam`] optimizer (hyper-parameters and step counter;
/// the per-parameter moments live with the parameters).
pub fn adam_to_value(adam: &Adam) -> Value {
    let mut table = Value::table();
    table.set("lr", Value::Float(f64::from(adam.lr)));
    table.set("beta1", Value::Float(f64::from(adam.beta1)));
    table.set("beta2", Value::Float(f64::from(adam.beta2)));
    table.set("eps", Value::Float(f64::from(adam.eps)));
    table.set("steps", u64_value(adam.steps()));
    table
}

/// Restores an [`Adam`] saved by [`adam_to_value`].
///
/// # Errors
///
/// Returns an error naming the missing or mistyped field.
pub fn adam_from_value(value: &Value) -> Result<Adam, String> {
    let table = value.as_table()?;
    Ok(Adam::restore(
        req(table, "lr")?.as_f32()?,
        req(table, "beta1")?.as_f32()?,
        req(table, "beta2")?.as_f32()?,
        req(table, "eps")?.as_f32()?,
        u64_from(req(table, "steps")?)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{MlpConfig, MlpPolicy, TransformerConfig, TransformerPolicy};
    use crate::value::{from_json, to_json};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dirty_moments(net: &mut dyn PolicyValueNet, rng: &mut StdRng) {
        // Give every tensor distinct non-zero moments so the test would
        // catch a codec that drops or reorders them.
        use rand::Rng;
        net.visit_params(&mut |p| {
            for x in p.m.as_mut_slice() {
                *x = rng.gen_range(-1.0f32..1.0);
            }
            for x in p.v.as_mut_slice() {
                *x = rng.gen_range(0.0f32..1.0);
            }
        });
    }

    #[test]
    fn mlp_params_round_trip_through_json_text() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MlpConfig::new(5, 4).with_hidden(vec![8, 8]);
        let mut net = MlpPolicy::new(&cfg, &mut rng);
        dirty_moments(&mut net, &mut rng);
        let saved = params_to_value(&mut net);
        let reparsed = from_json(&to_json(&saved)).unwrap();
        let mut other = MlpPolicy::new(&cfg, &mut rng);
        load_params(&mut other, &reparsed).unwrap();
        assert_eq!(params_to_value(&mut other), saved);
    }

    #[test]
    fn transformer_params_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = TransformerConfig::new(8, 3, 5).with_dims(16, 2, 32);
        let mut net = TransformerPolicy::new(&cfg, &mut rng);
        dirty_moments(&mut net, &mut rng);
        let saved = params_to_value(&mut net);
        let mut other = TransformerPolicy::new(&cfg, &mut rng);
        load_params(&mut other, &saved).unwrap();
        assert_eq!(params_to_value(&mut other), saved);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut small = MlpPolicy::new(&MlpConfig::new(4, 2).with_hidden(vec![4]), &mut rng);
        let mut large = MlpPolicy::new(&MlpConfig::new(4, 2).with_hidden(vec![8]), &mut rng);
        let saved = params_to_value(&mut small);
        let err = load_params(&mut large, &saved).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    fn param_count_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut one = MlpPolicy::new(&MlpConfig::new(4, 2).with_hidden(vec![4]), &mut rng);
        let mut two = MlpPolicy::new(&MlpConfig::new(4, 2).with_hidden(vec![4, 4]), &mut rng);
        let saved_one = params_to_value(&mut one);
        let saved_two = params_to_value(&mut two);
        assert!(load_params(&mut two, &saved_one).is_err());
        assert!(load_params(&mut one, &saved_two).is_err());
    }

    /// `saved` with `field` of parameter `index` replaced by `value`.
    fn with_field(saved: &Value, index: usize, field: &str, value: Value) -> Value {
        let mut params = saved.as_array().unwrap().to_vec();
        params[index].set(field, value);
        Value::Array(params)
    }

    #[test]
    fn non_finite_weights_and_moments_are_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = MlpConfig::new(4, 2).with_hidden(vec![4]);
        let mut net = MlpPolicy::new(&cfg, &mut rng);
        let saved = params_to_value(&mut net);
        for (field, bad) in [
            ("value", f64::NAN),
            ("m", f64::INFINITY),
            ("v", f64::NEG_INFINITY),
        ] {
            let mut data = saved.as_array().unwrap()[2].as_table().unwrap()[field]
                .as_array()
                .unwrap()
                .to_vec();
            data[3] = Value::Float(bad);
            let corrupt = with_field(&saved, 2, field, Value::Array(data));
            let err = load_params(&mut net, &corrupt).unwrap_err();
            assert!(
                err.contains("param 2") && err.contains(&format!("`{field}` element 3")),
                "{err}"
            );
        }
        // The finite original still loads.
        load_params(&mut net, &saved).unwrap();
        assert_eq!(params_to_value(&mut net), saved);
    }

    #[test]
    fn an_overflowing_shape_is_an_error_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = MlpPolicy::new(&MlpConfig::new(4, 2).with_hidden(vec![4]), &mut rng);
        let saved = params_to_value(&mut net);
        // 2^33 x 2^33 wraps to 0 elements, which the empty arrays match.
        let mut corrupt = with_field(&saved, 0, "rows", Value::Int(1 << 33));
        corrupt = with_field(&corrupt, 0, "cols", Value::Int(1 << 33));
        for field in ["value", "m", "v"] {
            corrupt = with_field(&corrupt, 0, field, Value::Array(Vec::new()));
        }
        let err = load_params(&mut net, &corrupt).unwrap_err();
        assert!(
            err.contains("param 0") && err.contains("overflows"),
            "{err}"
        );
    }

    #[test]
    fn loading_zeroes_gradients() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MlpConfig::new(4, 2).with_hidden(vec![4]);
        let mut net = MlpPolicy::new(&cfg, &mut rng);
        let saved = params_to_value(&mut net);
        net.visit_params(&mut |p| p.grad.as_mut_slice().iter_mut().for_each(|g| *g = 1.0));
        load_params(&mut net, &saved).unwrap();
        net.visit_params(&mut |p| assert!(p.grad.as_slice().iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn params_digest_tracks_exact_weight_bits() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = MlpConfig::new(4, 2).with_hidden(vec![4]);
        let mut net = MlpPolicy::new(&cfg, &mut rng);
        let mut twin = net.clone();
        assert_eq!(params_digest(&mut net), params_digest(&mut twin));

        // The tiniest possible perturbation (one ULP in one weight) must
        // change the digest — and moments must NOT affect it.
        twin.visit_params(&mut |p| {
            for m in p.m.as_mut_slice() {
                *m = 9.0;
            }
        });
        assert_eq!(params_digest(&mut net), params_digest(&mut twin));
        let mut bumped = false;
        twin.visit_params(&mut |p| {
            if !bumped {
                let w = &mut p.value.as_mut_slice()[0];
                *w = f32::from_bits(w.to_bits() ^ 1);
                bumped = true;
            }
        });
        assert_ne!(params_digest(&mut net), params_digest(&mut twin));
    }

    #[test]
    fn adam_round_trips_with_step_counter() {
        let mut adam = Adam::new(2.5e-4);
        adam.begin_step();
        adam.begin_step();
        adam.begin_step();
        let back = adam_from_value(&from_json(&to_json(&adam_to_value(&adam))).unwrap()).unwrap();
        assert_eq!(back.lr, adam.lr);
        assert_eq!(back.beta1, adam.beta1);
        assert_eq!(back.beta2, adam.beta2);
        assert_eq!(back.eps, adam.eps);
        assert_eq!(back.steps(), 3);
    }
}
