//! §6.2 — the Wavelet Neural Network classifier: held-out accuracy per
//! fault class on the simulator corpus, plus the activation ablation
//! (Mexican-hat wavelet hidden units vs a conventional tanh MLP of the
//! same shape).

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_wnn::{
    Activation, Dataset, DatasetBuilder, Network, TrainParams, WnnClassifier, WnnConfig,
};

fn normalize_stats(train: &Dataset) -> (Vec<f64>, Vec<f64>) {
    let dim = train.samples[0].0.len();
    let n = train.samples.len() as f64;
    let mut mean = vec![0.0; dim];
    for (x, _) in &train.samples {
        for (m, v) in mean.iter_mut().zip(x) {
            *m += v / n;
        }
    }
    let mut std = vec![0.0; dim];
    for (x, _) in &train.samples {
        for ((s, v), m) in std.iter_mut().zip(x).zip(&mean) {
            *s += (v - m) * (v - m) / n;
        }
    }
    for s in std.iter_mut() {
        *s = s.sqrt().max(1e-9);
    }
    (mean, std)
}

fn accuracy_with_activation(
    train: &Dataset,
    test: &Dataset,
    classes: usize,
    activation: Activation,
) -> f64 {
    let (mean, std) = normalize_stats(train);
    let norm = |ds: &Dataset| -> Vec<(Vec<f64>, usize)> {
        ds.samples
            .iter()
            .map(|(x, y)| {
                (
                    x.iter()
                        .zip(&mean)
                        .zip(&std)
                        .map(|((v, m), s)| (v - m) / s)
                        .collect(),
                    *y,
                )
            })
            .collect()
    };
    let dim = train.samples[0].0.len();
    let mut net = Network::new(dim, &[24], classes, activation, 7).expect("valid shape");
    net.train(
        &norm(train),
        &TrainParams {
            epochs: 220,
            learning_rate: 0.02,
            ..Default::default()
        },
    )
    .expect("trains");
    let test_n = norm(test);
    let correct = test_n
        .iter()
        .filter(|(x, y)| net.classify(x).0 == *y)
        .count();
    correct as f64 / test_n.len() as f64
}

fn main() {
    println!("E-WNN: wavelet neural network classification (§6.2)\n");
    let config = WnnConfig::standard();
    println!(
        "corpus: {} channels × {} samples, {} classes, feature dim {}",
        config.channels.len(),
        config.block_len,
        config.classes.len(),
        config.feature_dim()
    );
    let ds = DatasetBuilder::new(config.clone(), 3)
        .build()
        .expect("buildable");
    let (train, test) = ds.split(4);
    println!("dataset: {} train / {} test\n", train.len(), test.len());

    let clf = WnnClassifier::train(
        config.clone(),
        &train,
        &TrainParams {
            epochs: 220,
            learning_rate: 0.02,
            ..Default::default()
        },
    )
    .expect("trains");

    // Per-class held-out accuracy.
    let mut t = Table::new(&["class", "accuracy", "cases"]);
    let mut per_class = vec![(0usize, 0usize); config.classes.len()];
    for (x, y) in &test.samples {
        let v = clf.classify_features(x).expect("classifiable");
        let predicted = v
            .probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        per_class[*y].1 += 1;
        if predicted == *y {
            per_class[*y].0 += 1;
        }
    }
    for (i, class) in config.classes.iter().enumerate() {
        let (ok, n) = per_class[i];
        if n > 0 {
            t.row(&[
                class.label(),
                format!("{:.0}%", 100.0 * ok as f64 / n as f64),
                format!("{ok}/{n}"),
            ]);
        }
    }
    print!("{}", t.render());
    let overall = clf.accuracy(&test).expect("scorable");
    println!("\noverall held-out accuracy: {:.1}%", overall * 100.0);

    // Activation ablation on the identical split.
    let acc_wavelet =
        accuracy_with_activation(&train, &test, config.classes.len(), Activation::MexicanHat);
    let acc_tanh = accuracy_with_activation(&train, &test, config.classes.len(), Activation::Tanh);
    println!(
        "\nactivation ablation (same shape, data, schedule): \
         mexican-hat {:.1}% vs tanh {:.1}%",
        acc_wavelet * 100.0,
        acc_tanh * 100.0
    );

    verdict(
        "E-WNN.1 classifier learns the fault classes",
        overall >= 0.85,
        &format!("{:.1}% held-out accuracy over 9 classes", overall * 100.0),
    );
    verdict(
        "E-WNN.2 wavelet activation is competitive",
        acc_wavelet >= acc_tanh - 0.05,
        "the WNN basis holds its own against the conventional MLP",
    );
    exit_on_failed_verdict();
}
