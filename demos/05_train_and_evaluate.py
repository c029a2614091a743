"""End-to-end: generate data, train the dual-branch model, evaluate.

A reduced-size run (a few thousand relations, a few hundred iterations) so
the demo finishes in under a minute. The same flow is available from the
command line:

    dualrel generate --config gen.cfg --out data/
    dualrel train --config train.cfg --data data/ --out run/
    dualrel eval --checkpoint run/model.ckpt --data data/ --out report.txt
    dualrel report --log run/train.log --out summary.txt
"""

from dualrel import (
    DualBranchModel,
    GeneratorConfig,
    ScheduleConfig,
    TrainConfig,
    build_prior_bias,
    evaluate,
    generate_dataset,
    train,
)

gcfg = GeneratorConfig(num_head_predicates=8, tails_per_head=2, num_train=2000,
                       num_test=480, relations_per_image=12, seed=3)
vocab, train_split, test_split = generate_dataset(gcfg)
print(f"dataset: {gcfg.num_predicates} predicates, {len(train_split)} train "
      f"relations, {len(test_split)} balanced test relations")

sched = ScheduleConfig(k1=100, k2=200, total_iterations=400, head_threshold=40)
cfg = TrainConfig(schedule=sched, batch_size=8, hidden_dim=48, context_dim=32,
                  learning_rate=0.02, beta_en=0.0, mu=2.0, seed=3, log_every=50)
prior = build_prior_bias(train_split, vocab)
model = DualBranchModel.build(
    num_object_classes=gcfg.num_object_classes,
    num_predicates=gcfg.num_predicates,
    feature_dim=gcfg.feature_dim,
    hidden_dim=cfg.hidden_dim,
    context_dim=cfg.context_dim,
    prior_table=prior.table,
    seed=cfg.seed,
)

log = train(cfg, vocab, train_split, model)
print("\nloss trace (every 50 iterations):")
for entry in log.entries:
    b = entry.breakdown
    print(f"  k={entry.iteration:4d} alpha={entry.alpha:.2f} "
          f"ce={b.l_ce:.3f} crm={b.l_crm:.3f} gap={b.l_sc:.4f} "
          f"kd={b.l_kd:.3f} total={b.l_total:.3f}")

report = evaluate(model, test_split, vocab, ks=(10, 20))
print("\nfine-branch evaluation:")
for k in report.ks:
    many, medium, few = report.group_recalls[k]
    print(f"  K={k}: recall {report.r_at_k[k]:.3f}, mean recall "
          f"{report.mr_at_k[k]:.3f}, groups many/medium/few = "
          f"{many:.3f}/{medium:.3f}/{few:.3f}")
