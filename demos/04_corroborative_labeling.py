"""Retroactive labeling from corroborative events.

Trusted feeds report events late but with authority. Any stream point inside
an event's spatial radius and padded time span inherits the event's polarity;
everything else stays unlabeled and must be handled by the classifier pool.

Run: python3 demos/04_corroborative_labeling.py
"""

import numpy as np

from driftstream import CorroborativeEvent, DataPoint, assign_labels, haversine_km

print("== great-circle distances ==")
atlanta, austin = (33.749, -84.388), (30.267, -97.743)
print(f"  Atlanta to Austin : {haversine_km(atlanta, austin):7.1f} km")
print(f"  antipodal points  : {haversine_km((0.0, 0.0), (0.0, 180.0)):7.1f} km")

print("\n== a day of posts and two late agency reports ==")
day = 1735689600  # 2025-01-01T00:00:00Z
posts = [
    DataPoint(id="austin-slide", ts=day + 3600, text="mud across ranch road",
              vec=np.zeros(4), lat=30.30, lon=-97.70),
    DataPoint(id="austin-politics", ts=day + 4000, text="won by a landslide",
              vec=np.zeros(4), lat=30.27, lon=-97.74),
    DataPoint(id="seattle-rain", ts=day + 5000, text="rain again",
              vec=np.zeros(4), lat=47.61, lon=-122.33),
    DataPoint(id="no-geo", ts=day + 6000, text="scary slide video",
              vec=np.zeros(4)),
]
events = [
    CorroborativeEvent(id="usgs-austin", ts_start=day, ts_end=day + 7200,
                       lat=30.28, lon=-97.72, radius_km=40.0,
                       polarity="relevant", source="agency"),
    CorroborativeEvent(id="news-election", ts_start=day, ts_end=day + 7200,
                       lat=30.27, lon=-97.74, radius_km=5.0,
                       polarity="irrelevant", source="news"),
]

assignments = assign_labels(posts, events, pad_seconds=86400)
by_point = {a.point_id: a for a in assignments}
for post in posts:
    a = by_point.get(post.id)
    if a is None:
        print(f"  {post.id:<16s} -> unlabeled")
    else:
        print(f"  {post.id:<16s} -> label {a.label} from {a.event_id} "
              f"({a.distance_km:.1f} km away)")

print("\n== how much of the stream gets labeled this way ==")
fraction = len(assignments) / len(posts)
print(f"  {len(assignments)} of {len(posts)} points labeled "
      f"({100 * fraction:.0f}%); the rest rely on the teamed classifiers")
print("  note the election post: the nearer irrelevant event wins, which is")
print("  exactly the disambiguation corroboration is for.")
