_start:
	svc 1 +
